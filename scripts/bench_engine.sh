#!/usr/bin/env sh
# bench_engine.sh — run the engine hot-loop benchmark and track the
# perf trajectory against BENCH_engine.json (ns/op, B/op, allocs/op).
#
#   scripts/bench_engine.sh            # one pass, rewrites BENCH_engine.json
#   scripts/bench_engine.sh check      # gate: exit 1 when allocs/op != 0
#                                      # (hard, machine-independent) or on a
#                                      # >25% ns/op regression vs the
#                                      # committed file
#   COUNT=5 scripts/bench_engine.sh    # more -count repetitions (best wins)
#
# Record mode stamps the file with the host that measured it: CPU
# model, nproc, GOMAXPROCS (the benchmark name's -N suffix, 1 when
# absent) and Go version. Check mode compares numbers only, so read an
# ns/op gate failure against a file from another host with that in mind.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-record}"
case "$mode" in
record | check) ;;
*)
	echo "usage: scripts/bench_engine.sh [record|check]" >&2
	exit 2
	;;
esac

out=$(go test -run '^$' -bench '^BenchmarkEpoch(UniqueRows)?$' -benchmem -count "${COUNT:-1}" ./internal/engine/)
printf '%s\n' "$out"

# Keep the best (minimum-ns) repetition of each benchmark: the
# least-noisy estimate. Names are matched exactly (modulo the -GOMAXPROCS
# suffix): BenchmarkEpoch must not swallow BenchmarkEpochUniqueRows.
line=$(printf '%s\n' "$out" | awk '
$1 ~ /^BenchmarkEpoch(-[0-9]+)?$/ {
	if (ns == "" || $3 + 0 < ns + 0) {
		name = $1; iters = $2; ns = $3; bytes = $5; allocs = $7
	}
}
$1 ~ /^BenchmarkEpochUniqueRows(-[0-9]+)?$/ {
	if (uns == "" || $3 + 0 < uns + 0) {
		uiters = $2; uns = $3; ubytes = $5; uallocs = $7
	}
}
END {
	if (name == "" || uns == "") {
		print "bench_engine.sh: missing BenchmarkEpoch or BenchmarkEpochUniqueRows in output" > "/dev/stderr"
		exit 1
	}
	print name, iters, ns, bytes, allocs, uiters, uns, ubytes, uallocs
}')
set -- $line
name=$1 iters=$2 ns=$3 bytes=$4 allocs=$5
uiters=$6 uns=$7 ubytes=$8 uallocs=$9
case "$name" in
*-*) gomaxprocs=${name##*-} name=${name%-*} ;;
*) gomaxprocs=1 ;;
esac

if [ "$mode" = check ]; then
	if [ ! -f BENCH_engine.json ]; then
		echo "bench_engine.sh: no committed BENCH_engine.json to compare against" >&2
		exit 1
	fi
	# Anchored on the two-space indent so "ns_per_op" does not also match
	# the uniquerows_ns_per_op line (and vice versa, matched by prefix).
	old=$(awk -F: '/^  "ns_per_op"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCH_engine.json)
	uold=$(awk -F: '/^  "uniquerows_ns_per_op"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCH_engine.json)
	# allocs/op is machine-independent and gates hard at zero: the
	# steady-state epoch loop must not allocate, full stop (the PR-2
	# invariant, not just "no worse than the committed file"). ns/op
	# carries hardware variance, so it only catches gross (>25%)
	# slowdowns against the committed baseline.
	awk -v new="$ns" -v old="$old" -v na="$allocs" \
		-v unew="$uns" -v uold="$uold" -v una="$uallocs" 'BEGIN {
		if (old + 0 <= 0 || uold + 0 <= 0) {
			print "bench_engine.sh: bad ns_per_op/uniquerows_ns_per_op in BENCH_engine.json" > "/dev/stderr"
			exit 1
		}
		ratio = new / old
		uratio = unew / uold
		printf "bench_engine.sh: %s ns/op vs committed %s (%.2fx), %s allocs/op (must be 0)\n", new, old, ratio, na
		printf "bench_engine.sh: uniquerows %s ns/op vs committed %s (%.2fx), %s allocs/op (must be 0)\n", unew, uold, uratio, una
		if (na + 0 != 0 || una + 0 != 0) {
			print "bench_engine.sh: REGRESSION — steady-state epochs must be allocation-free (allocs/op == 0)" > "/dev/stderr"
			exit 1
		}
		if (ratio > 1.25 || uratio > 1.25) {
			print "bench_engine.sh: REGRESSION — epoch loop more than 25% slower than BENCH_engine.json" > "/dev/stderr"
			exit 1
		}
	}'
	exit 0
fi

cpu=$(awk -F: '/^model name/ { sub(/^[ \t]+/, "", $2); print $2; exit }' /proc/cpuinfo 2>/dev/null)
cat >BENCH_engine.json <<EOF
{
  "host_cpu": "${cpu:-unknown}",
  "host_nproc": $(nproc),
  "host_gomaxprocs": $gomaxprocs,
  "go_version": "$(go env GOVERSION)",
  "benchmark": "$name",
  "iterations": $iters,
  "ns_per_op": $ns,
  "bytes_per_op": $bytes,
  "allocs_per_op": $allocs,
  "uniquerows_iterations": $uiters,
  "uniquerows_ns_per_op": $uns,
  "uniquerows_bytes_per_op": $ubytes,
  "uniquerows_allocs_per_op": $uallocs
}
EOF

echo "wrote BENCH_engine.json:"
cat BENCH_engine.json
