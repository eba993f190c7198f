# Local and CI invocations are identical: .github/workflows/ci.yml runs
# exactly these targets.

GO ?= go

.PHONY: FORCE check build fmt vet lint vet-sarif test bench-test bench-smoke fuzz-smoke race obs-demo obs-demo-parallel chaos-demo chaos-golden checkpoint-demo prof-demo fleet-demo serve-demo bench reach reach-check

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

# vet-sarif runs the same analyzers but also writes the SARIF report CI
# uploads to code scanning. It lands in out/ (gitignored) and is written
# even on a clean run.
vet-sarif:
	@mkdir -p out
	$(GO) run ./cmd/vulcanvet -sarif out/vulcanvet.sarif $(A)

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

# fuzz-smoke runs eighteen native fuzz targets for ten seconds each: the
# checkpoint container (FuzzCheckpointReader), the
# journal decoder (FuzzReadJournal), the scenario loader (FuzzResolve),
# the radix selection (FuzzSelect), the page-table checkpoint decoder
# (FuzzReplicatedRestore), page-table operation sequences against the
# leaf masks (FuzzTableOps), the trace reader (FuzzTraceRead), the tier
# checkpoint decoder (FuzzTiersRestore), the profiler checkpoint
# decoder (FuzzProfilerRestore), the hint-fault window rebuild against
# its per-PTE reference (FuzzHintFaultWindow), the telemetry
# checkpoint decoder (FuzzRecorderRestore), the trace record emitter
# against its string-building reference (FuzzTraceStreamEvent), the
# system checkpoint section (FuzzSystemSection), a running app's
# checkpoint section (FuzzAppSection), the workload thread decoder
# (FuzzThreadRestore), the migration decoders: engine shadows, async
# queue and retry queue (FuzzMigrateRestore), the Vulcan policy
# decoder (FuzzVulcanRestore), and sync migration batches against the
# old unmap-at-staging engine (FuzzMigrateSync). Their seed corpora also
# run in every `go test`; a failing input lands in the package's
# testdata/fuzz/ for replay.
fuzz-smoke:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzCheckpointReader -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzReadJournal -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzResolve -fuzztime 10s
	$(GO) test ./internal/radix -run '^$$' -fuzz FuzzSelect -fuzztime 10s
	$(GO) test ./internal/pagetable -run '^$$' -fuzz FuzzReplicatedRestore -fuzztime 10s
	$(GO) test ./internal/pagetable -run '^$$' -fuzz FuzzTableOps -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzTraceRead -fuzztime 10s
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzTiersRestore -fuzztime 10s
	$(GO) test ./internal/profile -run '^$$' -fuzz FuzzProfilerRestore -fuzztime 10s
	$(GO) test ./internal/profile -run '^$$' -fuzz FuzzHintFaultWindow -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzRecorderRestore -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzTraceStreamEvent -fuzztime 10s
	$(GO) test ./internal/system -run '^$$' -fuzz FuzzSystemSection -fuzztime 10s
	$(GO) test ./internal/system -run '^$$' -fuzz FuzzAppSection -fuzztime 10s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzThreadRestore -fuzztime 10s
	$(GO) test ./internal/migrate -run '^$$' -fuzz FuzzMigrateRestore -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzVulcanRestore -fuzztime 10s
	$(GO) test ./internal/migrate -run '^$$' -fuzz FuzzMigrateSync -fuzztime 10s

# race proves the simulation core stays goroutine-free or correctly
# synchronized.
race:
	$(GO) test -race ./...

# The demos build vulcansim once and run the binary: one compile instead
# of one per invocation, and the program's own exit status (go run
# reports every failure as 1). FORCE rebuilds it on every make run; go's
# build cache keeps that cheap when nothing changed.
VULCANSIM = out/bin/vulcansim
$(VULCANSIM): FORCE
	$(GO) build -o $@ ./cmd/vulcansim
FORCE:

# obs-demo runs one seeded scenario twice with telemetry export and
# byte-compares the artifacts: the executable form of the determinism
# contract for the trace/metrics exporters. Artifacts land in
# out/obs-demo/ (gitignored); run1's trace.json opens in Perfetto.
OBS_DEMO_FLAGS = -policy vulcan -seconds 20 -scale 8 -seed 7
obs-demo: $(VULCANSIM)
	@mkdir -p out/obs-demo
	$(VULCANSIM) $(OBS_DEMO_FLAGS) \
		-trace-out out/obs-demo/trace.json -metrics-out out/obs-demo/metrics.csv \
		> out/obs-demo/report.txt
	$(VULCANSIM) $(OBS_DEMO_FLAGS) \
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
obs-demo-parallel: $(VULCANSIM)
	@mkdir -p out/obs-demo
	$(VULCANSIM) $(OBS_DEMO_FLAGS) -seeds 3 -parallel 4 \
		-trace-out out/obs-demo/ptrace.json -metrics-out out/obs-demo/pmetrics.csv \
		> out/obs-demo/preport.txt
	$(VULCANSIM) $(OBS_DEMO_FLAGS) -seeds 3 -parallel 1 \
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
chaos-demo: $(VULCANSIM)
	@mkdir -p out/chaos-demo
	$(VULCANSIM) $(CHAOS_DEMO_FLAGS) \
		-trace-out out/chaos-demo/trace.json -metrics-out out/chaos-demo/metrics.csv \
		> out/chaos-demo/report.txt
	$(VULCANSIM) $(CHAOS_DEMO_FLAGS) \
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
chaos-golden: $(VULCANSIM)
	@mkdir -p testdata/chaos
	$(VULCANSIM) $(CHAOS_DEMO_FLAGS) > testdata/chaos/report.golden.txt
	@echo "golden updated: testdata/chaos/report.golden.txt"

# checkpoint-demo is the executable form of the resume contract
# (DESIGN.md "Checkpoint & restore"): a run interrupted at t=10s,
# checkpointed and resumed for 10 more simulated seconds must produce
# report, trace and metrics bytes identical to a single uninterrupted
# 20-second run. Note `-seconds` after `-resume` counts additional
# simulated time. The same split runs a second time under
# `-faults moderate`, so the checkpoint carries each app's sample-fault
# stream (the app.N.faults section) through the resume. Artifacts land
# in out/ckpt-demo/ (gitignored).
CKPT_DEMO_FLAGS = -policy vulcan -scale 8 -seed 7
CKPT_CHAOS_FLAGS = $(CKPT_DEMO_FLAGS) -faults moderate
checkpoint-demo: $(VULCANSIM)
	@mkdir -p out/ckpt-demo
	$(VULCANSIM) $(CKPT_DEMO_FLAGS) -seconds 20 \
		-trace-out out/ckpt-demo/trace.json -metrics-out out/ckpt-demo/metrics.csv \
		> out/ckpt-demo/report.txt
	$(VULCANSIM) $(CKPT_DEMO_FLAGS) -seconds 10 \
		-checkpoint-out out/ckpt-demo/mid.ckpt \
		-trace-out out/ckpt-demo/trace-first.json -metrics-out out/ckpt-demo/metrics-first.csv \
		> out/ckpt-demo/report-first.txt
	$(VULCANSIM) $(CKPT_DEMO_FLAGS) -seconds 10 \
		-resume out/ckpt-demo/mid.ckpt \
		-trace-out out/ckpt-demo/trace-resumed.json -metrics-out out/ckpt-demo/metrics-resumed.csv \
		> out/ckpt-demo/report-resumed.txt
	cmp out/ckpt-demo/trace.json out/ckpt-demo/trace-resumed.json
	cmp out/ckpt-demo/metrics.csv out/ckpt-demo/metrics-resumed.csv
	cmp out/ckpt-demo/report.txt out/ckpt-demo/report-resumed.txt
	$(VULCANSIM) $(CKPT_CHAOS_FLAGS) -seconds 20 \
		-trace-out out/ckpt-demo/chaos-trace.json -metrics-out out/ckpt-demo/chaos-metrics.csv \
		> out/ckpt-demo/chaos-report.txt
	$(VULCANSIM) $(CKPT_CHAOS_FLAGS) -seconds 10 \
		-checkpoint-out out/ckpt-demo/chaos-mid.ckpt \
		-trace-out out/ckpt-demo/chaos-trace-first.json -metrics-out out/ckpt-demo/chaos-metrics-first.csv \
		> out/ckpt-demo/chaos-report-first.txt
	$(VULCANSIM) $(CKPT_CHAOS_FLAGS) -seconds 10 \
		-resume out/ckpt-demo/chaos-mid.ckpt \
		-trace-out out/ckpt-demo/chaos-trace-resumed.json -metrics-out out/ckpt-demo/chaos-metrics-resumed.csv \
		> out/ckpt-demo/chaos-report-resumed.txt
	cmp out/ckpt-demo/chaos-trace.json out/ckpt-demo/chaos-trace-resumed.json
	cmp out/ckpt-demo/chaos-metrics.csv out/ckpt-demo/chaos-metrics-resumed.csv
	cmp out/ckpt-demo/chaos-report.txt out/ckpt-demo/chaos-report-resumed.txt
	@echo "checkpoint-demo: resume-then-finish byte-identical to the uninterrupted run, fault-free and under -faults moderate"

# prof-demo is the executable determinism contract for the
# cycle-attribution profiler (DESIGN.md "Cost attribution"): one canned
# scenario profiled twice and once more on a 3-seed sweep at three worker
# counts; both cost artifacts (pprof protobuf, breakdown CSV) must be
# byte-identical, the profiler must leave the trace bytes alone, and the
# pprof file must parse with `go tool pprof`. Artifacts land in
# out/prof-demo/ (gitignored); `go tool pprof -http` draws
# cost.pb.gz's flame graph.
PROF_DEMO_FLAGS = -policy vulcan -seconds 20 -scale 8 -seed 7
prof-demo: $(VULCANSIM)
	@mkdir -p out/prof-demo
	$(VULCANSIM) $(PROF_DEMO_FLAGS) \
		-costprofile out/prof-demo/cost.pb.gz -cost-csv out/prof-demo/cost.csv \
		-trace-out out/prof-demo/trace.json > out/prof-demo/report.txt
	$(VULCANSIM) $(PROF_DEMO_FLAGS) \
		-costprofile out/prof-demo/cost2.pb.gz -cost-csv out/prof-demo/cost2.csv \
		> out/prof-demo/report2.txt
	$(VULCANSIM) $(PROF_DEMO_FLAGS) \
		-trace-out out/prof-demo/trace-plain.json > out/prof-demo/report-plain.txt
	cmp out/prof-demo/cost.pb.gz out/prof-demo/cost2.pb.gz
	cmp out/prof-demo/cost.csv out/prof-demo/cost2.csv
	cmp out/prof-demo/report.txt out/prof-demo/report2.txt
	cmp out/prof-demo/trace.json out/prof-demo/trace-plain.json
	$(VULCANSIM) $(PROF_DEMO_FLAGS) -seeds 3 -parallel 1 \
		-costprofile out/prof-demo/s.pb.gz -cost-csv out/prof-demo/s.csv > /dev/null
	$(VULCANSIM) $(PROF_DEMO_FLAGS) -seeds 3 -parallel 2 \
		-costprofile out/prof-demo/w2.pb.gz -cost-csv out/prof-demo/w2.csv > /dev/null
	$(VULCANSIM) $(PROF_DEMO_FLAGS) -seeds 3 -parallel 7 \
		-costprofile out/prof-demo/w7.pb.gz -cost-csv out/prof-demo/w7.csv > /dev/null
	for s in 7 8 9; do \
		cmp out/prof-demo/s.pb.seed$$s.gz out/prof-demo/w2.pb.seed$$s.gz && \
		cmp out/prof-demo/s.pb.seed$$s.gz out/prof-demo/w7.pb.seed$$s.gz && \
		cmp out/prof-demo/s.seed$$s.csv out/prof-demo/w2.seed$$s.csv && \
		cmp out/prof-demo/s.seed$$s.csv out/prof-demo/w7.seed$$s.csv || exit 1; \
	done
	$(GO) tool pprof -top out/prof-demo/cost.pb.gz | head -20
	@echo "prof-demo: cost artifacts byte-identical across replays and workers 1/2/7; trace unchanged by the profiler"

# fleet-demo is the executable determinism contract for the fleet layer
# (DESIGN.md "Fleet simulation"): the same 6-host fleet under the
# vulcan scheduler must emit byte-identical reports at -parallel 1, 2
# and 7, and a run interrupted at epoch 6, checkpointed and resumed at
# a different worker count must reproduce the uninterrupted report.
# Artifacts land in out/fleet-demo/ (gitignored).
FLEET_DEMO_FLAGS = -fleet 6 -scheduler vulcan -policy vulcan -seconds 12 -scale 8 -seed 7
fleet-demo: $(VULCANSIM)
	@mkdir -p out/fleet-demo
	$(VULCANSIM) $(FLEET_DEMO_FLAGS) -parallel 1 > out/fleet-demo/report-w1.txt
	$(VULCANSIM) $(FLEET_DEMO_FLAGS) -parallel 2 > out/fleet-demo/report-w2.txt
	$(VULCANSIM) $(FLEET_DEMO_FLAGS) -parallel 7 > out/fleet-demo/report-w7.txt
	cmp out/fleet-demo/report-w1.txt out/fleet-demo/report-w2.txt
	cmp out/fleet-demo/report-w1.txt out/fleet-demo/report-w7.txt
	$(VULCANSIM) $(FLEET_DEMO_FLAGS) -parallel 2 -seconds 6 \
		-checkpoint-out out/fleet-demo/mid.ckpt > /dev/null
	$(VULCANSIM) $(FLEET_DEMO_FLAGS) -parallel 7 -seconds 6 \
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
serve-demo: $(VULCANSIM)
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
		$(VULCANSIM) -replay-journal $(SD)/run.journal -parallel $$w \
			-trace-out $(SD)/rtrace$$w.json -metrics-out $(SD)/rmetrics$$w.csv \
			> $(SD)/rreport$$w.txt && \
		cmp $(SD)/trace.json $(SD)/rtrace$$w.json && \
		cmp $(SD)/metrics.csv $(SD)/rmetrics$$w.csv && \
		cmp $(SD)/report.txt $(SD)/rreport$$w.txt || exit 1; \
	done
	@echo "serve-demo: suspended/resumed daemon artifacts byte-identical to journal replay at workers 1/2/7"

# reach is the reachability census (scripts/reach.sh): it builds the
# binaries, examples and vulcanbench with coverage, runs the shipped
# command sets (the seven demos above among them) and lists the
# functions none of them reached in out/reach/unreached.txt. A few
# minutes long, so not part of check.
reach:
	bash scripts/reach.sh

# reach-check runs the census and fails, naming each one, when a
# function no shipped run reaches is missing from the committed list
# testdata/reach/unreached.txt (`path: Func` lines, sorted). Entries
# that left the list are only reported. After an intended change, copy
# out/reach/unreached-funcs.txt over the committed list.
REACH_LIST = testdata/reach/unreached.txt
reach-check: reach
	@new="$$(LC_ALL=C comm -13 $(REACH_LIST) out/reach/unreached-funcs.txt)"; \
	gone="$$(LC_ALL=C comm -23 $(REACH_LIST) out/reach/unreached-funcs.txt)"; \
	if [ -n "$$gone" ]; then \
		echo "reach-check: no longer in the unreached list (refresh $(REACH_LIST)):"; echo "$$gone"; fi; \
	if [ -n "$$new" ]; then \
		echo "reach-check: newly unreached functions, not in $(REACH_LIST):"; echo "$$new"; exit 1; fi; \
	echo "reach-check: no function joined the unreached list"

# bench runs vulcanbench, the repo's benchmark, over all four workloads
# (bench/README.md has its options and metrics). Figure values are
# pinned separately, by TestFiguresGolden in internal/figures.
bench:
	bash bench/run.sh
