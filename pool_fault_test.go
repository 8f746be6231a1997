package xennuma

import (
	"reflect"
	"testing"

	"repro/internal/faultinject"
)

// installPlan arms a fault plan for one test and disarms it on cleanup.
func installPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(p)
	t.Cleanup(func() { faultinject.Install(nil) })
	return p
}

// TestPoolResetFaultDegrades pins the warm pool's core robustness
// invariant: a lease whose reset fails — via the pool.reset site, as an
// error or a panic — is dropped and cold-built, the result stays
// bit-identical to the fault-free run, ResetDrops counts exactly the
// injected faults, and the process never dies.
func TestPoolResetFaultDegrades(t *testing.T) {
	const app, pol = "swaptions", "first-touch"
	o := Options{Scale: 256}
	p := MustPolicy(pol)
	ref, err := RunXen(app, p, o) // no pool: the reference result
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ name, spec string }{
		{"reset error", "pool.reset:hit=1:action=error"},
		{"reset panic", "pool.reset:hit=1:action=panic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			po := o
			po.Pool = NewPool()
			// First run cold-builds (empty pool: no reset, no fault hit)
			// and releases the machine warm.
			first, err := RunXen(app, p, po)
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}
			plan := installPlan(t, tc.spec)
			// Second run leases warm; the injected fault kills the reset
			// and the run must degrade to a cold build with identical
			// results.
			second, err := RunXen(app, p, po)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if !reflect.DeepEqual(first, ref) || !reflect.DeepEqual(second, ref) {
				t.Fatal("pooled results diverged from the fault-free reference")
			}
			if got := plan.TotalFired(); got != 1 {
				t.Fatalf("fired %d faults, want 1", got)
			}
			if drops := po.Pool.ResetDrops(); drops != 1 {
				t.Fatalf("ResetDrops = %d, want 1", drops)
			}
			hits, misses := po.Pool.Stats()
			if hits != 0 || misses != 2 {
				t.Fatalf("hits/misses = %d/%d, want 0/2 (both runs cold-built)", hits, misses)
			}
			// With the fault exhausted, the next lease resets and serves
			// warm again: degradation is per-lease, not sticky.
			faultinject.Install(nil)
			third, err := RunXen(app, p, po)
			if err != nil {
				t.Fatalf("recovered run: %v", err)
			}
			if !reflect.DeepEqual(third, ref) {
				t.Fatal("post-recovery result diverged")
			}
			if hits, _ := po.Pool.Stats(); hits != 1 {
				t.Fatalf("post-recovery hits = %d, want 1 (warm lease resumed)", hits)
			}
		})
	}
}
