# Local and CI invocations are identical: .github/workflows/ci.yml runs
# exactly these targets.

GO ?= go

.PHONY: check build fmt vet lint vet-sarif test bench-test bench-smoke race obs-demo obs-demo-parallel chaos-demo chaos-golden checkpoint-demo prof-demo fleet-demo serve-demo bench

# check is the full gate, in fail-fast order: cheap static checks first,
# then the test suites.
check: build fmt vet lint test bench-test race

build:
	$(GO) build ./...

# fmt fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs vulcanvet, the repo's own determinism/accounting analyzers
# (see internal/analysis). `make lint A=./internal/policy` narrows scope.
A ?= ./...
lint:
	$(GO) run ./cmd/vulcanvet $(A)

# vet-sarif runs the same analyzers but also writes the SARIF and JSON
# reports CI uploads to code scanning. Artifacts land in out/
# (gitignored); the SARIF is written even on a clean run.
vet-sarif:
	@mkdir -p out
	$(GO) run ./cmd/vulcanvet -sarif out/vulcanvet.sarif -json out/vulcanvet.json $(A)

test:
	$(GO) test ./...

# bench-test runs the benchmark harness's own tests: bench/ is a separate
# module, so the root `go test ./...` never reaches it.
bench-test:
	$(GO) -C bench test ./...

# bench-smoke is a short vulcanbench run over all four workloads. It
# gates only on correctness: it fails when a unit's output digest moves
# off bench/digests.json or any operation fails (fail_ratio > 0). The
# timings of a 3-second run are too noisy to judge.
bench-smoke:
	bash bench/run.sh --seconds 3

# race proves the simulation core stays goroutine-free or correctly
# synchronized.
race:
	$(GO) test -race ./...

# obs-demo runs one seeded scenario twice with telemetry export and
# byte-compares the artifacts: the executable form of the determinism
# contract for the trace/metrics exporters. Artifacts land in
# out/obs-demo/ (gitignored); run1's trace.json opens in Perfetto.
OBS_DEMO_FLAGS = -policy vulcan -seconds 20 -scale 8 -seed 7
obs-demo:
	@mkdir -p out/obs-demo
	$(GO) run ./cmd/vulcansim $(OBS_DEMO_FLAGS) \
		-trace-out out/obs-demo/trace.json -metrics-out out/obs-demo/metrics.csv \
		> out/obs-demo/report.txt
	$(GO) run ./cmd/vulcansim $(OBS_DEMO_FLAGS) \
		-trace-out out/obs-demo/trace2.json -metrics-out out/obs-demo/metrics2.csv \
		> out/obs-demo/report2.txt
	cmp out/obs-demo/trace.json out/obs-demo/trace2.json
	cmp out/obs-demo/metrics.csv out/obs-demo/metrics2.csv
	cmp out/obs-demo/report.txt out/obs-demo/report2.txt
	@echo "obs-demo: trace, metrics and report byte-identical across replays"

# obs-demo-parallel is the parallel-determinism gate: the same 3-seed
# sweep on 4 workers and on 1 must emit byte-identical reports, traces
# and metric CSVs (internal/lab's ordered-commit contract, DESIGN.md
# "Parallel determinism").
obs-demo-parallel:
	@mkdir -p out/obs-demo
	$(GO) run ./cmd/vulcansim $(OBS_DEMO_FLAGS) -seeds 3 -parallel 4 \
		-trace-out out/obs-demo/ptrace.json -metrics-out out/obs-demo/pmetrics.csv \
		> out/obs-demo/preport.txt
	$(GO) run ./cmd/vulcansim $(OBS_DEMO_FLAGS) -seeds 3 -parallel 1 \
		-trace-out out/obs-demo/strace.json -metrics-out out/obs-demo/smetrics.csv \
		> out/obs-demo/sreport.txt
	cmp out/obs-demo/preport.txt out/obs-demo/sreport.txt
	for s in 7 8 9; do \
		cmp out/obs-demo/ptrace.seed$$s.json out/obs-demo/strace.seed$$s.json && \
		cmp out/obs-demo/pmetrics.seed$$s.csv out/obs-demo/smetrics.seed$$s.csv || exit 1; \
	done
	@echo "obs-demo-parallel: workers=4 output byte-identical to serial"

# chaos-demo is the executable determinism contract for the fault
# subsystem: a faulted 2-seed sweep must (a) replay byte-identically,
# (b) match the committed golden report in testdata/chaos/, and (c)
# actually exercise the resilience machinery — injection, retry and
# degradation events must appear in the exported trace. Regenerate the
# golden with `make chaos-golden` after an intentional behavior change.
CHAOS_DEMO_FLAGS = -policy vulcan -seconds 20 -scale 8 -seed 7 -seeds 2 -faults moderate
chaos-demo:
	@mkdir -p out/chaos-demo
	$(GO) run ./cmd/vulcansim $(CHAOS_DEMO_FLAGS) \
		-trace-out out/chaos-demo/trace.json -metrics-out out/chaos-demo/metrics.csv \
		> out/chaos-demo/report.txt
	$(GO) run ./cmd/vulcansim $(CHAOS_DEMO_FLAGS) \
		-trace-out out/chaos-demo/trace2.json -metrics-out out/chaos-demo/metrics2.csv \
		> out/chaos-demo/report2.txt
	cmp out/chaos-demo/report.txt out/chaos-demo/report2.txt
	for s in 7 8; do \
		cmp out/chaos-demo/trace.seed$$s.json out/chaos-demo/trace2.seed$$s.json && \
		cmp out/chaos-demo/metrics.seed$$s.csv out/chaos-demo/metrics2.seed$$s.csv || exit 1; \
	done
	cmp out/chaos-demo/report.txt testdata/chaos/report.golden.txt
	grep -q 'fault.inject' out/chaos-demo/trace.seed7.json
	grep -q 'migrate.retry' out/chaos-demo/trace.seed7.json
	grep -q 'profile.degraded' out/chaos-demo/trace.seed7.json
	@echo "chaos-demo: faulted sweep byte-identical across replays and matches the golden"

# chaos-golden rewrites the committed chaos-demo golden.
chaos-golden:
	@mkdir -p testdata/chaos
	$(GO) run ./cmd/vulcansim $(CHAOS_DEMO_FLAGS) > testdata/chaos/report.golden.txt
	@echo "golden updated: testdata/chaos/report.golden.txt"

# checkpoint-demo is the executable form of the resume contract
# (DESIGN.md "Checkpoint & restore"): a run interrupted at t=10s,
# checkpointed and resumed for 10 more simulated seconds must produce
# report, trace and metrics bytes identical to a single uninterrupted
# 20-second run. Note `-seconds` after `-resume` counts additional
# simulated time. Artifacts land in out/ckpt-demo/ (gitignored).
CKPT_DEMO_FLAGS = -policy vulcan -scale 8 -seed 7
checkpoint-demo:
	@mkdir -p out/ckpt-demo
	$(GO) run ./cmd/vulcansim $(CKPT_DEMO_FLAGS) -seconds 20 \
		-trace-out out/ckpt-demo/trace.json -metrics-out out/ckpt-demo/metrics.csv \
		> out/ckpt-demo/report.txt
	$(GO) run ./cmd/vulcansim $(CKPT_DEMO_FLAGS) -seconds 10 \
		-checkpoint-out out/ckpt-demo/mid.ckpt \
		-trace-out out/ckpt-demo/trace-first.json -metrics-out out/ckpt-demo/metrics-first.csv \
		> out/ckpt-demo/report-first.txt
	$(GO) run ./cmd/vulcansim $(CKPT_DEMO_FLAGS) -seconds 10 \
		-resume out/ckpt-demo/mid.ckpt \
		-trace-out out/ckpt-demo/trace-resumed.json -metrics-out out/ckpt-demo/metrics-resumed.csv \
		> out/ckpt-demo/report-resumed.txt
	cmp out/ckpt-demo/trace.json out/ckpt-demo/trace-resumed.json
	cmp out/ckpt-demo/metrics.csv out/ckpt-demo/metrics-resumed.csv
	cmp out/ckpt-demo/report.txt out/ckpt-demo/report-resumed.txt
	@echo "checkpoint-demo: resume-then-finish byte-identical to the uninterrupted run"

# prof-demo is the executable determinism contract for the
# cycle-attribution profiler (DESIGN.md "Cost attribution"): one canned
# scenario profiled twice and once more on a 3-seed sweep at two worker
# counts; every cost artifact (pprof protobuf, folded stacks, breakdown
# CSV) must be byte-identical, and the pprof file must parse with
# `go tool pprof`. Artifacts land in out/prof-demo/ (gitignored);
# cost.folded feeds flamegraph.pl / speedscope directly.
PROF_DEMO_FLAGS = -policy vulcan -seconds 20 -scale 8 -seed 7
prof-demo:
	@mkdir -p out/prof-demo
	$(GO) run ./cmd/vulcansim $(PROF_DEMO_FLAGS) \
		-costprofile out/prof-demo/cost.pb.gz -cost-folded out/prof-demo/cost.folded \
		-cost-csv out/prof-demo/cost.csv > out/prof-demo/report.txt
	$(GO) run ./cmd/vulcansim $(PROF_DEMO_FLAGS) \
		-costprofile out/prof-demo/cost2.pb.gz -cost-folded out/prof-demo/cost2.folded \
		-cost-csv out/prof-demo/cost2.csv > out/prof-demo/report2.txt
	cmp out/prof-demo/cost.pb.gz out/prof-demo/cost2.pb.gz
	cmp out/prof-demo/cost.folded out/prof-demo/cost2.folded
	cmp out/prof-demo/cost.csv out/prof-demo/cost2.csv
	cmp out/prof-demo/report.txt out/prof-demo/report2.txt
	$(GO) run ./cmd/vulcansim $(PROF_DEMO_FLAGS) -seeds 3 -parallel 1 \
		-costprofile out/prof-demo/s.pb.gz -cost-folded out/prof-demo/s.folded \
		-cost-csv out/prof-demo/s.csv > /dev/null
	$(GO) run ./cmd/vulcansim $(PROF_DEMO_FLAGS) -seeds 3 -parallel 2 \
		-costprofile out/prof-demo/w2.pb.gz -cost-folded out/prof-demo/w2.folded \
		-cost-csv out/prof-demo/w2.csv > /dev/null
	$(GO) run ./cmd/vulcansim $(PROF_DEMO_FLAGS) -seeds 3 -parallel 7 \
		-costprofile out/prof-demo/w7.pb.gz -cost-folded out/prof-demo/w7.folded \
		-cost-csv out/prof-demo/w7.csv > /dev/null
	for s in 7 8 9; do \
		cmp out/prof-demo/s.pb.seed$$s.gz out/prof-demo/w2.pb.seed$$s.gz && \
		cmp out/prof-demo/s.pb.seed$$s.gz out/prof-demo/w7.pb.seed$$s.gz && \
		cmp out/prof-demo/s.seed$$s.folded out/prof-demo/w2.seed$$s.folded && \
		cmp out/prof-demo/s.seed$$s.folded out/prof-demo/w7.seed$$s.folded && \
		cmp out/prof-demo/s.seed$$s.csv out/prof-demo/w2.seed$$s.csv && \
		cmp out/prof-demo/s.seed$$s.csv out/prof-demo/w7.seed$$s.csv || exit 1; \
	done
	$(GO) tool pprof -top out/prof-demo/cost.pb.gz | head -20
	@echo "prof-demo: cost artifacts byte-identical across replays and workers 1/2/7"

# fleet-demo is the executable determinism contract for the fleet layer
# (DESIGN.md "Fleet simulation"): the same 6-host fleet under the
# vulcan scheduler must emit byte-identical reports at -parallel 1, 2
# and 7, and a run interrupted at epoch 6, checkpointed and resumed at
# a different worker count must reproduce the uninterrupted report.
# Artifacts land in out/fleet-demo/ (gitignored).
FLEET_DEMO_FLAGS = -fleet 6 -scheduler vulcan -policy vulcan -seconds 12 -scale 8 -seed 7
fleet-demo:
	@mkdir -p out/fleet-demo
	$(GO) run ./cmd/vulcansim $(FLEET_DEMO_FLAGS) -parallel 1 > out/fleet-demo/report-w1.txt
	$(GO) run ./cmd/vulcansim $(FLEET_DEMO_FLAGS) -parallel 2 > out/fleet-demo/report-w2.txt
	$(GO) run ./cmd/vulcansim $(FLEET_DEMO_FLAGS) -parallel 7 > out/fleet-demo/report-w7.txt
	cmp out/fleet-demo/report-w1.txt out/fleet-demo/report-w2.txt
	cmp out/fleet-demo/report-w1.txt out/fleet-demo/report-w7.txt
	$(GO) run ./cmd/vulcansim $(FLEET_DEMO_FLAGS) -parallel 2 -seconds 6 \
		-checkpoint-out out/fleet-demo/mid.ckpt > /dev/null
	$(GO) run ./cmd/vulcansim $(FLEET_DEMO_FLAGS) -parallel 7 -seconds 6 \
		-resume out/fleet-demo/mid.ckpt > out/fleet-demo/report-resumed.txt
	cmp out/fleet-demo/report-w1.txt out/fleet-demo/report-resumed.txt
	@echo "fleet-demo: fleet report byte-identical across workers 1/2/7 and across resume"

# serve-demo is the executable contract for the serving daemon
# (DESIGN.md "Serving mode"): a manual-paced vulcand session is driven
# over its unix socket (admission, intensity change, stepping), suspended
# mid-run via /v1/shutdown, resumed auto-paced to completion from its
# newest rolling checkpoint, and then the command journal replayed
# through the batch pipeline (vulcansim -replay-journal) at lab workers
# 1/2/7 must reproduce the daemon's streamed trace, metrics and report
# byte for byte. Rolling-checkpoint retention (-checkpoint-retain 2) is
# checked on the way out. Artifacts land in out/serve-demo/ (gitignored).
SD = out/serve-demo
SD_ARTIFACTS = -journal $(SD)/run.journal -trace-out $(SD)/trace.json \
	-metrics-out $(SD)/metrics.csv -report-out $(SD)/report.txt \
	-checkpoint-base $(SD)/run.ckpt -checkpoint-every 6 -checkpoint-retain 2
serve-demo:
	@rm -rf $(SD); mkdir -p $(SD)
	$(GO) build -o $(SD)/vulcand ./cmd/vulcand
	@set -e; \
	$(SD)/vulcand -socket $(SD)/v.sock -config testdata/serve/scenario.json \
		-speed 0 $(SD_ARTIFACTS) & pid=$$!; \
	for i in $$(seq 100); do test -S $(SD)/v.sock && break; sleep 0.1; done; \
	vd() { $(SD)/vulcand -socket $(SD)/v.sock "$$@"; echo; }; \
	vd -post /v1/step -data '{"epochs":4}'; \
	vd -post /v1/admit -data '{"app":{"name":"burst","class":"BE","threads":1,"rss_pages":2048,"generator":"uniform"},"depart":20}'; \
	vd -post /v1/step -data '{"epochs":6}'; \
	vd -post /v1/intensity -data '{"name":"burst","milli":500}'; \
	vd -post /v1/step -data '{"epochs":1}'; \
	vd -get /v1/status; \
	vd -post /v1/shutdown; \
	wait $$pid; \
	echo "serve-demo: suspended mid-run; resuming auto-paced"; \
	$(SD)/vulcand -socket $(SD)/v.sock -resume -speed 50 $(SD_ARTIFACTS)
	test -f $(SD)/run.t012.ckpt && test -f $(SD)/run.t018.ckpt
	@if test -f $(SD)/run.t006.ckpt; then \
		echo "retention failed: run.t006.ckpt survived -checkpoint-retain 2"; exit 1; fi
	for w in 1 2 7; do \
		$(GO) run ./cmd/vulcansim -replay-journal $(SD)/run.journal -parallel $$w \
			-trace-out $(SD)/rtrace$$w.json -metrics-out $(SD)/rmetrics$$w.csv \
			> $(SD)/rreport$$w.txt && \
		cmp $(SD)/trace.json $(SD)/rtrace$$w.json && \
		cmp $(SD)/metrics.csv $(SD)/rmetrics$$w.csv && \
		cmp $(SD)/report.txt $(SD)/rreport$$w.txt || exit 1; \
	done
	@echo "serve-demo: suspended/resumed daemon artifacts byte-identical to journal replay at workers 1/2/7"

# bench runs vulcanbench, the repo's benchmark, over all four workloads
# (bench/README.md has its options and metrics). Figure values are
# pinned separately, by TestFiguresGolden in internal/figures.
bench:
	bash bench/run.sh
