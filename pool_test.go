package xennuma

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestPoolReusesMachinesAcrossVMSizes leases one pool's machines, one
// cell at a time, to VMs of different memory sizes in the order
// small → large → small, then to a consolidated and a colocated pair.
// Each pooled result must be bit-for-bit the cold-built (Options.Pool
// nil) result of the same cell: a warm machine that last hosted a
// bigger or smaller VM must not leak anything into the next one. The
// pool keys machines by (scale, IOMMU, VM count) only, so every lease
// after the first of each VM count must find a warm machine.
func TestPoolReusesMachinesAcrossVMSizes(t *testing.T) {
	const small, large = "swaptions", "x264"
	o := Options{Scale: 256, Seed: 7}
	n := o.normalized()
	for _, vms := range []int{1, 2} {
		a, errA := workload.Get(small)
		b, errB := workload.Get(large)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if ma, mb := vmMemBytes(scaledTopo(n.Scale), a, n, vms), vmMemBytes(scaledTopo(n.Scale), b, n, vms); ma >= mb {
			t.Fatalf("VM sizes %d and %d do not grow small → large; the test is vacuous", ma, mb)
		}
	}
	single := func(app, pol string) func(Options) ([]Result, error) {
		return func(o Options) ([]Result, error) {
			r, err := RunXen(app, MustPolicy(pol), o)
			return []Result{r}, err
		}
	}
	pair := func(mode PairMode) func(Options) ([]Result, error) {
		return func(o Options) ([]Result, error) {
			a, b, err := RunXenPair(large, MustPolicy("first-touch"), small, MustPolicy("round-4k"), mode, false, o)
			return []Result{a, b}, err
		}
	}
	cells := []struct {
		name string
		vms  int
		run  func(Options) ([]Result, error)
	}{
		{"small", 1, single(small, "first-touch")},
		{"large", 1, single(large, "round-4k")},
		{"small again", 1, single(small, "round-4k/carrefour")},
		{"consolidated pair", 2, pair(Consolidated)},
		{"colocated pair", 2, pair(Colocated)},
	}
	for _, xenplus := range []bool{false, true} {
		o := o
		o.XenPlus = xenplus
		po := o
		po.Pool = NewPool()
		leased := map[int]bool{}
		var wantHits, wantMisses uint64
		for _, c := range cells {
			want, err := c.run(o)
			if err != nil {
				t.Fatalf("xenplus=%v %s: fresh run: %v", xenplus, c.name, err)
			}
			got, err := c.run(po)
			if err != nil {
				t.Fatalf("xenplus=%v %s: pooled run: %v", xenplus, c.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("xenplus=%v %s: pooled result diverges:\npooled: %+v\nfresh:  %+v", xenplus, c.name, got, want)
			}
			if leased[c.vms] {
				wantHits++
			} else {
				wantMisses++
			}
			leased[c.vms] = true
			if hits, misses := po.Pool.Stats(); hits != wantHits || misses != wantMisses {
				t.Errorf("xenplus=%v %s: pool hits/misses = %d/%d, want %d/%d", xenplus, c.name, hits, misses, wantHits, wantMisses)
			}
		}
	}
}

// TestBadInputsLeaseNoMachine pins that a Xen cell checks its inputs
// before it leases a machine: an unknown application, policy or pair
// mode, or Carrefour stacked on a policy that forbids it, returns its
// error without cold-building a machine, so the pool counts no miss and
// drops nothing.
func TestBadInputsLeaseNoMachine(t *testing.T) {
	o := Options{Scale: 256, Pool: NewPool()}
	ft := MustPolicy("first-touch")
	if _, err := RunXen("no-such-app", ft, o); err == nil {
		t.Error("RunXen with an unknown app: no error")
	}
	if _, _, err := RunXenPair("swaptions", ft, "no-such-app", ft, Consolidated, false, o); err == nil {
		t.Error("RunXenPair with an unknown app: no error")
	}
	// Hand-built policies that ParsePolicy would refuse: an unknown kind,
	// and Carrefour on bind, the one policy it cannot stack on.
	for _, bad := range []Policy{{Static: "bogus"}, {Static: "bind:0", Carrefour: true}} {
		if _, err := RunXen("swaptions", bad, o); err == nil {
			t.Errorf("RunXen with policy %+v: no error", bad)
		}
		if _, _, err := RunXenPair("swaptions", ft, "x264", bad, Consolidated, false, o); err == nil {
			t.Errorf("RunXenPair with policy %+v: no error", bad)
		}
	}
	if _, _, err := RunXenPair("swaptions", ft, "x264", ft, PairMode(7), false, o); err == nil {
		t.Error("RunXenPair with PairMode(7): no error")
	}
	if hits, misses := o.Pool.Stats(); hits != 0 || misses != 0 {
		t.Errorf("pool hits/misses = %d/%d after rejected cells, want 0/0", hits, misses)
	}
	if drops := o.Pool.ResetDrops(); drops != 0 {
		t.Errorf("pool reset drops = %d after rejected cells, want 0", drops)
	}
}
