package policy

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/pt"
)

// The built-in policies. The first three registrations are the paper's
// static policies and keep registration indices 0/1/2 (the ids recorded
// in policy-switch trace events); the later registrations prove the
// registry is open: interleave, bind:<node>, least-loaded and adaptive
// run end-to-end under both Xen and native Linux without any layer
// outside this package switching on their kinds.
func init() {
	Register(Descriptor{
		Name:       "round-1G",
		Aliases:    []string{"round1g", "r1g"},
		Abbrev:     "R1G",
		Fault:      "stray faults round-robin over the home nodes",
		Carrefour:  true,
		BootOnly:   true,
		Contiguous: true,
		Boot:       bootRound1G,
		New:        func(string, int) (Policy, error) { return &roundStatic{kind: Round1G}, nil },
	})
	Register(Descriptor{
		Name:      "round-4K",
		Aliases:   []string{"round4k", "r4k"},
		Abbrev:    "R4K",
		Fault:     "stray faults round-robin over the home nodes",
		Carrefour: true,
		Boot:      bootRound4K,
		New:       func(string, int) (Policy, error) { return &roundStatic{kind: Round4K}, nil },
		Native: func(_ string, nodes int) (NativePlacer, error) {
			return &nativeRoundRobin{nodes: nodes}, nil
		},
	})
	Register(Descriptor{
		Name:          "first-touch",
		Aliases:       []string{"firsttouch", "ft"},
		Abbrev:        "FT",
		Fault:         "allocates on the accessor's node; releases invalidate via the page queue",
		Carrefour:     true,
		RuntimeOnly:   true,
		UsesPageQueue: true,
		New:           func(string, int) (Policy, error) { return &firstTouch{}, nil },
		Native: func(string, int) (NativePlacer, error) {
			return nativeFirstTouch{}, nil
		},
	})
	Register(Descriptor{
		Name:      "interleave",
		Aliases:   []string{"il"},
		Abbrev:    "IL",
		Fault:     "allocates round-robin over the home nodes at fault time",
		Carrefour: true,
		New:       func(string, int) (Policy, error) { return &roundStatic{kind: Interleave}, nil },
		Native: func(_ string, nodes int) (NativePlacer, error) {
			return &nativeRoundRobin{nodes: nodes}, nil
		},
	})
	Register(Descriptor{
		Name:          "bind",
		Abbrev:        "B",
		Fault:         "allocates on the bound node, falling back when its bank is full",
		Parameterized: true,
		DefaultArg:    "0",
		NormalizeArg:  normalizeBindArg,
		New: func(arg string, nodes int) (Policy, error) {
			node, err := bindNode(arg, nodes)
			if err != nil {
				return nil, err
			}
			return &bindPolicy{node: node}, nil
		},
		Native: func(arg string, nodes int) (NativePlacer, error) {
			node, err := bindNode(arg, nodes)
			if err != nil {
				return nil, err
			}
			return nativeBind{node: node}, nil
		},
	})
	Register(Descriptor{
		Name:      "least-loaded",
		Aliases:   []string{"leastloaded", "ll"},
		Abbrev:    "LL",
		Fault:     "allocates on the home node with the most free memory at fault time",
		Carrefour: true,
		New:       func(string, int) (Policy, error) { return &leastLoaded{}, nil },
		Native: func(_ string, nodes int) (NativePlacer, error) {
			return nativeLeastLoaded{nodes: nodes}, nil
		},
	})
	registerAdaptive()
}

// --- eager boot placement (BootPlacer hooks) ---

// bootRound4K maps every physical page round-robin on the home nodes.
// MapPage records per-page ownership, so first-touch can later
// invalidate and free any of these frames individually.
func bootRound4K(b BootOps) error {
	homes := b.HomeNodes()
	pages := b.PhysPages()
	for p := uint64(0); p < pages; p++ {
		node := homes[int(p)%len(homes)]
		mfn, err := b.AllocFrameOn(node)
		if err != nil {
			return err
		}
		b.MapPage(mem.PFN(p), mfn)
	}
	return nil
}

// bootRound1G implements §3.3: allocate by huge regions round-robin
// from the home nodes; the first and last "GiB" of the physical space
// are fragmented (BIOS and I/O holes) and are therefore allocated in
// mid and 4 KiB regions instead.
func bootRound1G(b BootOps) error {
	huge, mid := b.RegionOrders()
	hugeFrames := mem.FramesOf(huge)
	midFrames := mem.FramesOf(mid)
	homes := b.HomeNodes()
	rr := 0
	// allocRegion allocates 2^order frames on the next home node (with
	// fallback to the following homes) and maps them phys-contiguously
	// starting at base.
	allocRegion := func(base uint64, order int) error {
		var mfn mem.MFN
		var err error
		for try := 0; try < len(homes); try++ {
			node := homes[rr%len(homes)]
			rr++
			mfn, err = b.AllocRegion(node, order)
			if err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
		b.MapRegion(mem.PFN(base), mfn, order)
		return nil
	}
	pages := b.PhysPages()
	p := uint64(0)
	for p < pages {
		remaining := pages - p
		inFirstGiB := p < hugeFrames
		inLastGiB := pages > hugeFrames && p >= pages-hugeFrames
		switch {
		case !inFirstGiB && !inLastGiB && remaining >= hugeFrames:
			if err := allocRegion(p, huge); err != nil {
				return err
			}
			p += hugeFrames
		case remaining >= midFrames:
			if err := allocRegion(p, mid); err != nil {
				return err
			}
			p += midFrames
		default:
			if err := allocRegion(p, mem.Order4K); err != nil {
				return err
			}
			p++
		}
	}
	return nil
}

// --- runtime policies (hypervisor side) ---

// roundStatic covers round-4K, round-1G and interleave: all three
// resolve faults round-robin over the home nodes and ignore page
// queues. For the eager kinds placement happened at domain creation (by
// the BootPlacer), so only stray faults — pages invalidated by an
// earlier first-touch phase — reach HandleFault; interleave boots
// lazily, so every page takes this path on its first access.
type roundStatic struct {
	kind Kind
	next int
}

func (p *roundStatic) Kind() Kind { return p.kind }

func (p *roundStatic) HandleFault(d DomainOps, pfn mem.PFN, accessor numa.NodeID, kind pt.FaultKind) {
	if kind == pt.FaultWriteProtected {
		// Migration in flight finished; just unprotect.
		d.Table().Unprotect(pfn)
		return
	}
	homes := d.HomeNodes()
	node := homes[p.next%len(homes)]
	p.next++
	mfn, err := d.AllocFrameOn(node)
	if err != nil {
		panic(fmt.Sprintf("policy: %v fault allocation failed: %v", p.kind, err))
	}
	d.MapPage(pfn, mfn)
}

func (p *roundStatic) OnPageQueue(DomainOps, []PageOp) int { return 0 }

// firstTouch implements §4.2: released pages have their hypervisor
// page-table entry invalidated so the next access faults, and the fault
// allocates the backing frame on the accessor's node.
type firstTouch struct{}

func (p *firstTouch) Kind() Kind { return FirstTouch }

func (p *firstTouch) HandleFault(d DomainOps, pfn mem.PFN, accessor numa.NodeID, kind pt.FaultKind) {
	if kind == pt.FaultWriteProtected {
		d.Table().Unprotect(pfn)
		return
	}
	mfn, err := d.AllocFrameOn(accessor)
	if err != nil {
		panic(fmt.Sprintf("policy: first-touch fault allocation failed: %v", err))
	}
	d.MapPage(pfn, mfn)
}

// OnPageQueue implements the reconciliation protocol of §4.2.4: scan the
// queue from the most recent operation, keep the first (most recent)
// operation seen for each page, invalidate pages whose latest operation
// is a release, and leave reallocated pages where they are (copying their
// content would be too costly in the common case). A release is the
// latest operation on its page when no newer operation in the batch
// names the page; a batch holds at most QueueConfig.BatchSize operations
// (64 in the paper), so scanning the newer ones is cheaper than hashing
// every page into a visited set, and allocates nothing.
func (p *firstTouch) OnPageQueue(d DomainOps, ops []PageOp) int {
	invalidated := 0
scan:
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if op.Kind != OpRelease {
			continue
		}
		for _, newer := range ops[i+1:] {
			if newer.PFN == op.PFN {
				continue scan
			}
		}
		d.InvalidatePage(op.PFN)
		invalidated++
	}
	return invalidated
}

// bindPolicy allocates every faulted page on one preferred node;
// AllocFrameOn's round-robin fallback covers the bank filling up.
type bindPolicy struct {
	node numa.NodeID
}

func (p *bindPolicy) Kind() Kind { return Bind(p.node) }

func (p *bindPolicy) HandleFault(d DomainOps, pfn mem.PFN, accessor numa.NodeID, kind pt.FaultKind) {
	if kind == pt.FaultWriteProtected {
		d.Table().Unprotect(pfn)
		return
	}
	mfn, err := d.AllocFrameOn(p.node)
	if err != nil {
		panic(fmt.Sprintf("policy: bind:%d fault allocation failed: %v", p.node, err))
	}
	d.MapPage(pfn, mfn)
}

func (p *bindPolicy) OnPageQueue(DomainOps, []PageOp) int { return 0 }

// leastLoaded allocates each faulted page on the home node with the
// most free machine memory at fault time (ties break toward the first
// home in domain order, keeping runs deterministic).
type leastLoaded struct{}

func (p *leastLoaded) Kind() Kind { return LeastLoaded }

func (p *leastLoaded) HandleFault(d DomainOps, pfn mem.PFN, accessor numa.NodeID, kind pt.FaultKind) {
	if kind == pt.FaultWriteProtected {
		d.Table().Unprotect(pfn)
		return
	}
	homes := d.HomeNodes()
	best, bestFree := homes[0], d.NodeFreeBytes(homes[0])
	for _, n := range homes[1:] {
		if free := d.NodeFreeBytes(n); free > bestFree {
			best, bestFree = n, free
		}
	}
	mfn, err := d.AllocFrameOn(best)
	if err != nil {
		panic(fmt.Sprintf("policy: least-loaded fault allocation failed: %v", err))
	}
	d.MapPage(pfn, mfn)
}

func (p *leastLoaded) OnPageQueue(DomainOps, []PageOp) int { return 0 }

// --- native placers (Linux side) ---

// nativeFirstTouch places on the toucher's node (§3.1).
type nativeFirstTouch struct{}

func (nativeFirstTouch) PlaceNode(toucher numa.NodeID, _ func(numa.NodeID) int64) numa.NodeID {
	return toucher
}

// nativeRoundRobin spreads pages round-robin over every node (round-4K
// and interleave: natively both are the lazy allocator placing
// round-robin).
type nativeRoundRobin struct {
	nodes int
	rr    int
}

func (p *nativeRoundRobin) PlaceNode(numa.NodeID, func(numa.NodeID) int64) numa.NodeID {
	n := numa.NodeID(p.rr % p.nodes)
	p.rr++
	return n
}

// nativeBind prefers one node; the backend's fallback handles overflow.
type nativeBind struct {
	node numa.NodeID
}

func (p nativeBind) PlaceNode(numa.NodeID, func(numa.NodeID) int64) numa.NodeID { return p.node }

// nativeLeastLoaded places on the node with the most free memory.
type nativeLeastLoaded struct {
	nodes int
}

func (p nativeLeastLoaded) PlaceNode(_ numa.NodeID, free func(numa.NodeID) int64) numa.NodeID {
	best, bestFree := numa.NodeID(0), free(0)
	for i := 1; i < p.nodes; i++ {
		if f := free(numa.NodeID(i)); f > bestFree {
			best, bestFree = numa.NodeID(i), f
		}
	}
	return best
}

// --- bind argument handling ---

func normalizeBindArg(arg string) (string, error) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 0 {
		return "", fmt.Errorf("bad node %q (want bind:<node>)", arg)
	}
	return strconv.Itoa(n), nil
}

func bindNode(arg string, nodes int) (numa.NodeID, error) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("policy: bad bind node %q", arg)
	}
	if nodes > 0 && n >= nodes {
		return 0, fmt.Errorf("policy: bind node %d out of range (machine has %d nodes)", n, nodes)
	}
	return numa.NodeID(n), nil
}
