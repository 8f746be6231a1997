package engine

import (
	"testing"

	"repro/internal/numa"
	"repro/internal/sim"
)

// BenchmarkEpoch measures one steady-state iteration of the per-cell
// engine loop (stream-table refresh, four fixed-point rate/latency
// couplings, progress and statistics) — the unit of work every
// experiment cell repeats thousands of times. The workload is pinned in
// steady state by an effectively infinite baseline, so the number to
// watch is allocs/op: the stream table and the cached region
// distributions must keep it at zero.
//
// scripts/bench_engine.sh runs this and records ns/op and allocs/op in
// BENCH_engine.json.
func BenchmarkEpoch(b *testing.B) {
	benchEpoch(b, newStub(numa.AMD48Scaled(64), false))
}

// pinnedStub pins every thread to node 0: all 48 threads then fold to
// bitwise-identical node rows and collapse into a single dedup group.
type pinnedStub struct {
	stubBackend
}

func (b *pinnedStub) ThreadNode(int) numa.NodeID { return 0 }

// BenchmarkEpochUniqueRows is BenchmarkEpoch with every thread pinned
// to one node, the best case for the row-dedup emission: the
// fixed-point walks touch uniqueRows × nodes cells (one row here)
// instead of threads × nodes. The gap to BenchmarkEpoch measures the
// dedup win separately from the baseline kernel.
//
// scripts/bench_engine.sh records it alongside BenchmarkEpoch in
// BENCH_engine.json; allocs/op must be zero for both.
func BenchmarkEpochUniqueRows(b *testing.B) {
	benchEpoch(b, &pinnedStub{*newStub(numa.AMD48Scaled(64), false)})
}

func benchEpoch(b *testing.B, backend Backend) {
	topo := numa.AMD48Scaled(64)
	prof := testProfile()
	prof.BaselineSeconds = 1e9 // never finishes: every epoch is steady-state
	in := &Instance{Prof: prof, Backend: backend, NThreads: 48}
	cfg := testConfig(topo)
	r := &runner{cfg: cfg, insts: []*Instance{in}, rand: sim.NewRand(cfg.Seed)}
	if err := r.setup(); err != nil {
		b.Fatal(err)
	}
	// One warm-up epoch populates the lazily allocated caches and
	// scratch buffers.
	r.epoch(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.now = sim.Time(i) * cfg.Epoch
		// The bench measures the full kernel: with the converged fast
		// path on, steady-state epochs would skip the very passes being
		// timed.
		r.converged = false
		r.epoch(i)
	}
}
