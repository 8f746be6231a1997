package policy

import (
	"maps"
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/pt"
	"repro/internal/sim"
)

// oracleDomain is a fakeDomain whose PolicySwitcher face installs the
// successor policy the way xen.Domain does, and records the fault at
// which the switch happened.
type oracleDomain struct {
	*fakeDomain
	nodes    int
	cfg      Config
	pol      *Policy
	fault    int
	switchAt int
}

func (d *oracleDomain) Policy() Config { return d.cfg }

func (d *oracleDomain) HypercallSetPolicy(cfg Config) (sim.Time, error) {
	pol, err := newPolicy(cfg.Static, d.nodes)
	if err != nil {
		return 0, err
	}
	d.pol, d.cfg, d.switchAt = pol, cfg, d.fault
	return 0, nil
}

// freeMap is a node → free bytes table the native side debits per
// placement, as the native backend's allocator does.
type freeMap map[numa.NodeID]int64

func (f freeMap) FreeBytes(n numa.NodeID) int64 { return f[n] }

// TestXenAndNativePlaceAlike is the oracle for the policy layer: for
// every registered policy that also runs natively, the hypervisor fault
// path on a domain whose home nodes are every node, and the placement
// rule driven the way the native backend drives it (the same accessor
// sequence, its own equally shrinking free memory), choose the same
// node for every page. The adaptive policy must also decide to switch
// at the same fault.
func TestXenAndNativePlaceAlike(t *testing.T) {
	const nodes = 4
	const faults = 4 * adaptiveWindow
	start := freeMap{0: 100 * mem.PageSize, 1: 106 * mem.PageSize, 2: 103 * mem.PageSize, 3: 98 * mem.PageSize}
	accessors := make([]numa.NodeID, faults)
	x := uint32(7)
	for i := range accessors {
		x = x*1664525 + 1013904223
		accessors[i] = numa.NodeID(x >> 30)
	}
	checked := 0
	homes := []numa.NodeID{0, 1, 2, 3}
	for _, desc := range List() {
		if desc.BootOnly {
			continue
		}
		kind := Kind(desc.DefaultSpelling())
		t.Run(string(kind), func(t *testing.T) {
			dom := &oracleDomain{
				fakeDomain: newFakeDomain(homes...),
				nodes:      nodes,
				cfg:        Config{Static: kind},
				switchAt:   -1,
			}
			for n, b := range start {
				dom.free[n] = b
			}
			var err error
			if dom.pol, err = newPolicy(kind, nodes); err != nil {
				t.Fatal(err)
			}
			native, err := desc.Place(desc.DefaultArg, nodes)
			if err != nil {
				t.Fatal(err)
			}
			free := maps.Clone(start)
			nativeSwitch := -1
			var xenNodes, nativeNodes []numa.NodeID
			for i, acc := range accessors {
				dom.fault = i
				dom.pol.HandleFault(dom, mem.PFN(i), acc, pt.FaultNotPresent)
				xenNodes = append(xenNodes, dom.NodeOfFrame(dom.table.Lookup(mem.PFN(i)).MFN))

				n := native.PlaceNode(acc, homes, free)
				free[n] -= mem.PageSize
				nativeNodes = append(nativeNodes, n)
				if a, ok := native.(*adaptive); ok && a.switched && nativeSwitch < 0 {
					nativeSwitch = i
				}
			}
			for i := range xenNodes {
				if xenNodes[i] != nativeNodes[i] {
					t.Fatalf("fault %d: xen placed on node %d, native on node %d", i, xenNodes[i], nativeNodes[i])
				}
			}
			if kind == Adaptive {
				if dom.switchAt < 0 || dom.switchAt != nativeSwitch {
					t.Fatalf("switch fault: xen %d, native %d", dom.switchAt, nativeSwitch)
				}
				if dom.switchAt >= 3*adaptiveWindow {
					t.Fatalf("switch at fault %d leaves no first-touch faults to compare", dom.switchAt)
				}
			}
		})
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d policies compared", checked)
	}
}
