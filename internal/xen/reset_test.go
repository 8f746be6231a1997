package xen

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
)

// TestResetMatchesFreshHypervisor pins the xen half of the warm-pool
// reset protocol: after creating guest domains, faulting pages through a
// runtime policy and migrating some, Reset must leave the hypervisor
// bit-identical in behavior to a freshly booted one — same free memory
// per node, same next domain ID, zeroed counters, and a subsequent
// CreateDomain sequence producing the same placements.
func TestResetMatchesFreshHypervisor(t *testing.T) {
	build := func() *Hypervisor { return testHV(t) }

	churn := func(hv *Hypervisor) {
		d, err := hv.CreateDomain(DomainSpec{
			Name: "u1", VCPUs: 4, MemBytes: 16 << 20,
			PinCPUs: []numa.CPUID{0, 4, 8, 12},
			Boot:    policy.Round4K,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Switch to first-touch so the page queue invalidates entries
		// and faults re-place them page by page (page-grained ownership,
		// the hard case for allocator restoration).
		if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
			t.Fatal(err)
		}
		ops := make([]policy.PageOp, 0, 64)
		for p := mem.PFN(0); p < 64; p++ {
			ops = append(ops, policy.PageOp{PFN: p, Kind: policy.OpRelease})
		}
		d.HypercallPageQueue(ops)
		for p := mem.PFN(0); p < 64; p++ {
			d.Touch(p, numa.NodeID(int(p)%hv.Topo.NumNodes()), p%2 == 0)
		}
		for p := mem.PFN(0); p < 16; p++ {
			d.MigratePage(p, numa.NodeID(3))
		}
		if _, err := hv.CreateDomain(DomainSpec{
			Name: "u2", VCPUs: 2, MemBytes: 8 << 20, Boot: policy.Round1G,
		}); err != nil {
			t.Fatal(err)
		}
	}

	hv := build()
	churn(hv)
	if err := hv.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}

	fresh := build()
	for n := 0; n < hv.Topo.NumNodes(); n++ {
		node := numa.NodeID(n)
		if got, want := hv.Alloc.FreeBytes(node), fresh.Alloc.FreeBytes(node); got != want {
			t.Errorf("node %d free bytes after Reset = %d, fresh = %d", n, got, want)
		}
	}
	if len(hv.domains) != len(fresh.domains) || hv.domains[0] == nil {
		t.Errorf("domains after Reset = %d, fresh = %d", len(hv.domains), len(fresh.domains))
	}
	if hv.Hypercalls != 0 || hv.PageFaults != 0 || hv.PagesMigrated != 0 ||
		hv.EntriesFlushed != 0 || hv.PassthroughOffs != 0 {
		t.Error("hypervisor counters not zeroed by Reset")
	}
	for c := 0; c < hv.Topo.NumCPUs(); c++ {
		if hv.CPULoad(numa.CPUID(c)) != 0 {
			t.Errorf("CPU %d still loaded after Reset", c)
		}
	}

	// Rebuilding the same domains on the reset machine must reproduce a
	// fresh machine's placements exactly — shells and refilled maps must
	// not change a single frame.
	for _, h := range []*Hypervisor{hv, fresh} {
		churn(h)
	}
	dr, df := hv.domains[1], fresh.domains[1]
	if dr.PhysPages() != df.PhysPages() {
		t.Fatalf("phys pages diverge: %d vs %d", dr.PhysPages(), df.PhysPages())
	}
	for p := uint64(0); p < dr.PhysPages(); p++ {
		nr, okr := dr.NodeOfPFN(mem.PFN(p))
		nf, okf := df.NodeOfPFN(mem.PFN(p))
		if okr != okf || nr != nf {
			t.Fatalf("PFN %d placement diverges after Reset: (%v,%v) vs (%v,%v)", p, nr, okr, nf, okf)
		}
	}
	if dr.Faults != df.Faults || dr.Migrated != df.Migrated {
		t.Errorf("counters diverge after rebuild: faults %d/%d migrated %d/%d",
			dr.Faults, df.Faults, dr.Migrated, df.Migrated)
	}
}
