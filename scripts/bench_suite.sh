#!/usr/bin/env sh
# bench_suite.sh — run the experiment-suite throughput benchmark and
# track the trajectory against BENCH_suite.json (ns per fixed sweep
# batch, cells/sec), plus the per-cell machine-construction cost
# (BenchmarkCellConstruction fresh vs pooled — the warm pool's win).
#
#   scripts/bench_suite.sh             # one pass, rewrites BENCH_suite.json
#   scripts/bench_suite.sh check       # gate: exit 1 on a >25% regression
#                                      # in ns/op, bytes/op or allocs/op
#                                      # vs the committed file
#   COUNT=3 scripts/bench_suite.sh     # more -count repetitions (best wins)
#
# Record mode stamps the file with the host that measured it: CPU
# model, nproc, GOMAXPROCS (the benchmark name's -N suffix, 1 when
# absent) and Go version. Check mode compares numbers only, so read a
# gate failure against a file from another host with that in mind.
#
# A sweep batch builds whole suites so it still allocates, but with the
# warm-machine pool the per-cell churn is bounded: bytes/op and
# allocs/op get the same soft 25% gate as ns/op so pool regressions
# (missed leases, lost reuse in the reset protocol) fail check mode.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-record}"
case "$mode" in
record | check) ;;
*)
	echo "usage: scripts/bench_suite.sh [record|check]" >&2
	exit 2
	;;
esac

out=$(go test -run '^$' -bench BenchmarkSuiteSweep -benchmem -count "${COUNT:-1}" ./internal/exp/)
printf '%s\n' "$out"
cellout=$(go test -run '^$' -bench BenchmarkCellConstruction -benchmem -count "${COUNT:-1}" .)
printf '%s\n' "$cellout"

# Keep the best (minimum-ns) repetition: the least-noisy estimate.
# With -benchmem the fields are: name iters ns "ns/op" cells
# "cells/sec" bytes "B/op" allocs "allocs/op".
line=$(printf '%s\n' "$out" | awk '
/^BenchmarkSuiteSweep/ {
	if (best == "" || $3 + 0 < best + 0) {
		best = $3
		name = $1; iters = $2; ns = $3; cells = $5; bytes = $7; allocs = $9
	}
}
END {
	if (name == "") {
		print "bench_suite.sh: no BenchmarkSuiteSweep line in output" > "/dev/stderr"
		exit 1
	}
	print name, iters, ns, cells, bytes, allocs
}')
set -- $line
name=$1 iters=$2 ns=$3 cells=$4 bytes=$5 allocs=$6
case "$name" in
*-*) gomaxprocs=${name##*-} name=${name%-*} ;;
*) gomaxprocs=1 ;;
esac

# Cell-construction sub-benchmarks (no cells/sec metric): fields are
# name iters ns "ns/op" bytes "B/op" allocs "allocs/op".
cell_best() {
	printf '%s\n' "$cellout" | awk -v want="$1" '
BEGIN { re = "^BenchmarkCellConstruction/" want "(-|$)" }
$1 ~ re {
	if (best == "" || $3 + 0 < best + 0) {
		best = $3
		ns = $3; bytes = $5; allocs = $7
	}
}
END {
	if (ns == "") {
		print "bench_suite.sh: no BenchmarkCellConstruction/" want " line" > "/dev/stderr"
		exit 1
	}
	print ns, bytes, allocs
}'
}
set -- $(cell_best fresh)
cell_fresh_ns=$1 cell_fresh_bytes=$2 cell_fresh_allocs=$3
set -- $(cell_best pooled)
cell_pooled_ns=$1 cell_pooled_bytes=$2 cell_pooled_allocs=$3

if [ "$mode" = check ]; then
	if [ ! -f BENCH_suite.json ]; then
		echo "bench_suite.sh: no committed BENCH_suite.json to compare against" >&2
		exit 1
	fi
	json_num() {
		awk -F: -v key="\"$1\"" '$1 ~ key { gsub(/[ ,]/, "", $2); print $2 }' BENCH_suite.json
	}
	old_ns=$(json_num ns_per_op)
	old_bytes=$(json_num bytes_per_op)
	old_allocs=$(json_num allocs_per_op)
	# All three carry some variance, so each gate only catches gross
	# (>25%) regressions of the fixed batch against the committed file.
	awk -v ns="$ns" -v old_ns="$old_ns" \
		-v bytes="$bytes" -v old_bytes="$old_bytes" \
		-v allocs="$allocs" -v old_allocs="$old_allocs" \
		-v cells="$cells" '
	function gate(label, new, old) {
		if (old + 0 <= 0) {
			printf "bench_suite.sh: bad committed value for %s\n", label > "/dev/stderr"
			fail = 1
			return
		}
		ratio = new / old
		printf "bench_suite.sh: %s %s vs committed %s (%.2fx)\n", label, new, old, ratio
		if (ratio > 1.25) {
			printf "bench_suite.sh: REGRESSION — %s more than 25%% above BENCH_suite.json\n", label > "/dev/stderr"
			fail = 1
		}
	}
	BEGIN {
		fail = 0
		gate("ns/batch", ns, old_ns)
		gate("bytes/batch", bytes, old_bytes)
		gate("allocs/batch", allocs, old_allocs)
		printf "bench_suite.sh: %s cells/sec\n", cells
		exit fail
	}'
	exit 0
fi

# The cell_* keys are trajectory only (no gate): they decompose the
# suite numbers into per-cell machine construction, fresh vs pooled.
cpu=$(awk -F: '/^model name/ { sub(/^[ \t]+/, "", $2); print $2; exit }' /proc/cpuinfo 2>/dev/null)
cat >BENCH_suite.json <<EOF
{
  "host_cpu": "${cpu:-unknown}",
  "host_nproc": $(nproc),
  "host_gomaxprocs": $gomaxprocs,
  "go_version": "$(go env GOVERSION)",
  "benchmark": "$name",
  "iterations": $iters,
  "ns_per_op": $ns,
  "cells_per_sec": $cells,
  "bytes_per_op": $bytes,
  "allocs_per_op": $allocs,
  "cell_fresh_ns_per_op": $cell_fresh_ns,
  "cell_fresh_bytes_per_op": $cell_fresh_bytes,
  "cell_fresh_allocs_per_op": $cell_fresh_allocs,
  "cell_pooled_ns_per_op": $cell_pooled_ns,
  "cell_pooled_bytes_per_op": $cell_pooled_bytes,
  "cell_pooled_allocs_per_op": $cell_pooled_allocs
}
EOF

echo "wrote BENCH_suite.json:"
cat BENCH_suite.json
