package engine

import (
	"testing"

	"repro/internal/numa"
	"repro/internal/sim"
)

// TestRefreshStreamsFoldSkip checks the steady-state fast path: when no
// region mutated (every gen counter unchanged) and no thread finished,
// refreshStreams must return without touching the folded rows, and any
// of those conditions changing — or a cleared foldValid — must rebuild
// them.
func TestRefreshStreamsFoldSkip(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	in := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 4}
	r := &runner{cfg: testConfig(topo), insts: []*Instance{in}, rand: sim.NewRand(1)}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	in.refreshStreams()
	orig := in.rows[0]
	// Poke a sentinel into the rows: a skipped refresh leaves it, a
	// rebuild overwrites it (folded shares are never negative).
	in.rows[0] = -1
	in.refreshStreams()
	if in.rows[0] != -1 {
		t.Fatal("refreshStreams rebuilt despite unchanged gens and live count")
	}
	// Clearing foldValid (how the reference kernel forces a fold)
	// always rebuilds.
	in.foldValid = false
	in.refreshStreams()
	if in.rows[0] != orig {
		t.Fatalf("forced refresh left rows[0] = %v, want %v", in.rows[0], orig)
	}
	// A placement mutation bumps the region gen and defeats the skip.
	in.rows[0] = -1
	in.hot.Replicate()
	in.refreshStreams()
	if in.rows[0] == -1 {
		t.Fatal("refreshStreams skipped after a placement mutation")
	}
	// A thread finishing changes the live count and defeats the skip.
	in.rows[0] = -1
	in.Threads[3].Done = true
	in.refreshStreams()
	if in.rows[0] == -1 {
		t.Fatal("refreshStreams skipped after a thread finished")
	}
}

// TestRunnerRowArena checks the kernel's row packing: every instance's
// folded rows alias one contiguous runner-owned arena, in instance
// order, capacity-capped so an append through one instance's slice can
// never spill into its neighbour.
func TestRunnerRowArena(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	nn := topo.NumNodes()
	a := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 3}
	b := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 5}
	r := &runner{cfg: testConfig(topo), insts: []*Instance{a, b}, rand: sim.NewRand(1)}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	if len(r.rowArena) != (3+5)*nn {
		t.Fatalf("arena len = %d, want %d", len(r.rowArena), (3+5)*nn)
	}
	if &a.rows[0] != &r.rowArena[0] {
		t.Fatal("instance 0 rows do not alias the arena head")
	}
	if &b.rows[0] != &r.rowArena[3*nn] {
		t.Fatal("instance 1 rows do not follow instance 0 in the arena")
	}
	if cap(a.rows) != 3*nn || cap(b.rows) != 5*nn {
		t.Fatalf("row slices not capacity-capped: caps %d, %d", cap(a.rows), cap(b.rows))
	}
	// The fold must reuse the arena backing, never reallocate off it.
	a.refreshStreams()
	b.refreshStreams()
	if &a.rows[0] != &r.rowArena[0] || &b.rows[0] != &r.rowArena[3*nn] {
		t.Fatal("foldRows moved instance rows off the arena")
	}
}
