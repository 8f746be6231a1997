package exp

import (
	"reflect"
	"testing"

	xennuma "repro"
	"repro/internal/engine"
)

// poolCells runs a representative mix of pool-eligible cells — the full
// Xen policy sweep for two apps plus a colocated and a consolidated
// pair — through the suite's scheduler and returns every result in a
// fixed order, along with the pool's hit count.
func poolCells(t *testing.T, workers int, noPool bool) ([]engine.Result, uint64) {
	t.Helper()
	s := NewSuiteParallel(256, workers)
	s.Opt.Seed = 7
	if noPool {
		s.Opt.Pool = nil
	}
	apps := []string{"swaptions", "ep.D"}
	for _, app := range apps {
		s.PrefetchXenSweep(app)
	}
	for _, mode := range []xennuma.PairMode{xennuma.Colocated, xennuma.Consolidated} {
		s.PrefetchXenPair("swaptions", "first-touch", "ep.D", "round-4k", mode, false)
	}
	s.Join()
	var res []engine.Result
	for _, app := range apps {
		for _, p := range XenPolicies {
			res = append(res, s.Xen(app, p, true))
		}
	}
	for _, mode := range []xennuma.PairMode{xennuma.Colocated, xennuma.Consolidated} {
		a, b := s.XenPair("swaptions", "first-touch", "ep.D", "round-4k", mode, false)
		res = append(res, a, b)
	}
	hits, _ := s.PoolStats()
	return res, hits
}

// TestPooledCellsMatchFreshSuites pins the warm-machine pool end to
// end: a suite leasing and resetting pooled machines must produce
// results bit-for-bit identical to the reference path that leaves
// Options.Pool nil and cold-builds every cell, at one worker and at
// several (leases are exclusive, so worker count must not matter). The pool must also
// actually fire, or the comparison is vacuous.
func TestPooledCellsMatchFreshSuites(t *testing.T) {
	want, _ := poolCells(t, 1, true)
	for _, workers := range []int{1, 4} {
		got, hits := poolCells(t, workers, false)
		if hits == 0 {
			t.Errorf("workers=%d: pool never hit; test is vacuous", workers)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: result counts differ: %d vs %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: result %d diverges:\npooled: %+v\nfresh:  %+v", workers, i, got[i], want[i])
			}
		}
	}
}
