#!/usr/bin/env bash
# Reachability census: which functions does no shipped run reach?
#
#   bash scripts/reach.sh        (or: make reach)
#
# Builds every binary, example and vulcanbench with coverage over the
# vulcan/... packages, runs the shipped command sets (the seven Makefile
# demos, figures -all in text and CSV, each policy, a checkpoint and a
# resume under tpp, memtis and nomad, a filtered trace, a fleet, the
# examples, tracegen, a checkpoint and a resume of custom apps from a
# scenario file, and one traced vulcanbench pass), and writes the
# functions none of them executed to out/reach/unreached.txt, one
# `go tool covdata func` row each, and to out/reach/unreached-funcs.txt
# as sorted `path: Func` lines, without line numbers, so the list does
# not move when code above a function does. Runs offline and takes a
# few minutes. `make reach-check` compares the second list with the
# committed testdata/reach/unreached.txt.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

dir=out/reach
bin="$dir/bin"
work="$dir/work"
rm -rf "$dir"
mkdir -p "$bin" "$work" "$dir/cov"
export GOCOVERDIR="$root/$dir/cov"
cover=(-cover -coverpkg=vulcan/...)

for pkg in cmd/figures cmd/tracegen cmd/vulcand cmd/vulcansim examples/*; do
	go build "${cover[@]}" -o "$bin/$(basename "$pkg")" "./$pkg"
done
go -C bench build "${cover[@]}" -o "$root/$bin/vulcanbench" .

# The demos build their own binaries; GOFLAGS instruments those too.
GOFLAGS="-mod=readonly ${cover[*]}" make --no-print-directory VULCANSIM="$bin/vulcansim" \
	obs-demo obs-demo-parallel chaos-demo checkpoint-demo prof-demo fleet-demo serve-demo >"$work/demos.log"

# -all covers every figure and table, -ablations, -figr and -figf.
"$bin/figures" -all -seconds 120 -scale 8 >"$work/figures.txt"
"$bin/figures" -all -csv -seconds 120 -scale 8 >"$work/figures.csv"

for pol in static tpp memtis nomad vulcan; do
	"$bin/vulcansim" -policy "$pol" -seconds 20 -scale 8 -seed 3 >/dev/null
done
# The demos checkpoint only vulcan runs: a checkpoint and a resume under
# tpp, memtis and nomad carry the PEBS and hint-fault profilers through
# their codecs.
for pol in tpp memtis nomad; do
	"$bin/vulcansim" -policy "$pol" -seconds 10 -scale 8 -seed 3 -checkpoint-out "$work/$pol.ckpt" >/dev/null
	"$bin/vulcansim" -policy "$pol" -seconds 10 -scale 8 -seed 3 -resume "$work/$pol.ckpt" >/dev/null
done
# Custom apps on the micro, scan and webserver generators, from a
# scenario file, through a checkpoint and a resume: no preset runs
# these generators, so this is their only path through their codecs.
"$bin/vulcansim" -config testdata/reach/custom-apps.json -checkpoint-out "$work/custom.ckpt" >/dev/null
"$bin/vulcansim" -config testdata/reach/custom-apps.json -resume "$work/custom.ckpt" >/dev/null
"$bin/vulcansim" -seconds 10 -scale 8 -seed 3 -obs-filter migrate-sync,tlb-shootdown \
	-trace-out "$work/filtered.json" >/dev/null
"$bin/vulcansim" -fleet 4 -scheduler fairness -seconds 10 -scale 8 >/dev/null

for ex in examples/*; do
	"$bin/$(basename "$ex")" >/dev/null
done

"$bin/tracegen" -workload memcached -refs 20000 -o "$work/mc.vtrc"
"$bin/tracegen" -inspect "$work/mc.vtrc" >/dev/null

"$bin/vulcanbench" --seconds 3 --trace 1 >"$work/bench.txt"

# Function rows at 0.0% outside the benchmark's own module.
go tool covdata func -i "$dir/cov" | grep -v '^vulcan/bench/' |
	awk '$NF == "0.0%"' >"$dir/unreached.txt"
awk '{ split($1, loc, ":"); print loc[1] ": " $2 }' "$dir/unreached.txt" |
	LC_ALL=C sort >"$dir/unreached-funcs.txt"
total=$(go tool covdata func -i "$dir/cov" | grep -v '^vulcan/bench/' | grep -vc '^total')
echo "reach: $(wc -l <"$dir/unreached.txt") of $total non-bench functions never ran; see $dir/unreached.txt"
