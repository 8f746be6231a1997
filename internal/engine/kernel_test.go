package engine_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/guest"
	"repro/internal/linux"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xen"
)

const (
	cellScale = 64
	cellSeed  = 7
)

// cellConfig is the run configuration of the equivalence cells: the
// default at scale 64 and seed 7 with the TLB model on.
func cellConfig(topo *numa.Topology) engine.Config {
	cfg := engine.DefaultConfig(topo, cellScale)
	cfg.Seed = cellSeed
	tlb := numa.DefaultTLB()
	cfg.TLB = &tlb
	return cfg
}

// instance returns an instance of app under pol on b with 48 threads and
// 2 MiB pages. Its CarrefourMode stays ModeFull: no cell's policy names
// a Carrefour variant.
func instance(t *testing.T, app string, pol policy.Config, b engine.Backend, mcs bool) *engine.Instance {
	t.Helper()
	prof, err := workload.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Instance{
		Prof:       prof,
		Backend:    b,
		NThreads:   48,
		Carrefour:  pol.Carrefour,
		MCS:        mcs && prof.UsesPthreadSync,
		LargePages: true,
	}
}

// xenPairCell builds the consolidated facesim (first-touch/carrefour) +
// psearchy (round-4k/carrefour) pair on a fresh Xen+ machine: two VMs,
// each pinned to all 48 CPUs and sized as if alone, with MCS locks.
func xenPairCell(t *testing.T, topo *numa.Topology) []*engine.Instance {
	t.Helper()
	xcfg := xen.ScaledConfig(cellScale)
	xcfg.IOMMU = true
	hv, err := xen.New(topo, sim.NewEngine(), xcfg, int64(2<<30)/cellScale)
	if err != nil {
		t.Fatal(err)
	}
	pins := make([]numa.CPUID, topo.NumCPUs())
	for c := range pins {
		pins[c] = numa.CPUID(c)
	}
	var insts []*engine.Instance
	for _, vm := range []struct{ app, pol string }{
		{"facesim", "first-touch/carrefour"},
		{"psearchy", "round-4k/carrefour"},
	} {
		pol, err := policy.Parse(vm.pol)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := workload.Get(vm.app)
		if err != nil {
			t.Fatal(err)
		}
		boot, err := policy.BootKind(pol.Static)
		if err != nil {
			t.Fatal(err)
		}
		// The facade's VM sizing: footprint plus a third, plus one
		// round-1G unit, capped at 90% of what dom0 leaves.
		foot := int64(prof.FootprintMB * (1 << 20) / cellScale)
		mem := foot + foot/3 + int64(2<<30)/cellScale
		if limit := (topo.TotalMemory() - int64(2<<30)/cellScale) * 9 / 10; mem > limit {
			mem = limit
		}
		dom, err := hv.CreateDomain(xen.DomainSpec{
			Name: prof.Name, VCPUs: len(pins), MemBytes: mem, PinCPUs: pins, Boot: boot,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := guest.RebuildBackend(nil, hv, dom, guest.DefaultQueueConfig(), pol)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance(t, vm.app, pol, b, true))
	}
	return insts
}

// nativeCell builds dc.B under native first-touch/carrefour.
func nativeCell(t *testing.T, topo *numa.Topology) []*engine.Instance {
	t.Helper()
	pol, err := policy.Parse("first-touch/carrefour")
	if err != nil {
		t.Fatal(err)
	}
	b, err := linux.New(topo, pol)
	if err != nil {
		t.Fatal(err)
	}
	return []*engine.Instance{instance(t, "dc.B", pol, b, false)}
}

// TestBatchKernelMatchesReference pins the production epoch kernel —
// the shared cost-matrix fill, the hoisted run constants, the fold
// skip, the runner row arena and the converged fast path — against the
// reference kernel (reference_test.go): every transform is
// value-preserving, so each cell must produce bit-for-bit identical
// results down both paths. The cells mirror the golden configuration on
// real backends (a two-VM consolidated Xen+ pair and a native run):
// Carrefour migrations, misleading bursts, disk DMA and the TLB model
// are all live. Each run builds its cell afresh.
func TestBatchKernelMatchesReference(t *testing.T) {
	topo := numa.AMD48Scaled(cellScale)
	for _, cell := range []struct {
		name  string
		build func(*testing.T, *numa.Topology) []*engine.Instance
	}{
		{"xen-pair", xenPairCell},
		{"native", nativeCell},
	} {
		got, err := engine.Run(cellConfig(topo), cell.build(t, topo)...)
		if err != nil {
			t.Fatalf("%s: Run: %v", cell.name, err)
		}
		want, err := engine.RunReference(cellConfig(topo), cell.build(t, topo)...)
		if err != nil {
			t.Fatalf("%s: RunReference: %v", cell.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, reference %d", cell.name, len(got), len(want))
		}
		for i := range got {
			// Without migrations the Carrefour half of the kernel
			// would go unchecked.
			if got[i].Migrated == 0 {
				t.Errorf("%s: result %d migrated nothing", cell.name, i)
			}
			g, w := got[i], want[i]
			gs, ws := g.Stats, w.Stats
			g.Stats, w.Stats = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: result %d diverges:\nkernel:    %+v\nreference: %+v", cell.name, i, g, w)
			}
			if !reflect.DeepEqual(gs, ws) {
				t.Errorf("%s: result %d stats diverge", cell.name, i)
			}
		}
	}
}
