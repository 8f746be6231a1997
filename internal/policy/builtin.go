package policy

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/numa"
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
		Place:      placeRoundRobin,
	})
	Register(Descriptor{
		Name:      "round-4K",
		Aliases:   []string{"round4k", "r4k"},
		Abbrev:    "R4K",
		Fault:     "stray faults round-robin over the home nodes",
		Carrefour: true,
		Boot:      bootRound4K,
		Place:     placeRoundRobin,
	})
	Register(Descriptor{
		Name:          "first-touch",
		Aliases:       []string{"firsttouch", "ft"},
		Abbrev:        "FT",
		Fault:         "allocates on the accessor's node; releases invalidate via the page queue",
		Carrefour:     true,
		RuntimeOnly:   true,
		UsesPageQueue: true,
		Place:         func(string, int) (Placer, error) { return firstTouch{}, nil },
	})
	Register(Descriptor{
		Name:      "interleave",
		Aliases:   []string{"il"},
		Abbrev:    "IL",
		Fault:     "allocates round-robin over the home nodes at fault time",
		Carrefour: true,
		Place:     placeRoundRobin,
	})
	Register(Descriptor{
		Name:          "bind",
		Abbrev:        "B",
		Fault:         "allocates on the bound node, falling back when its bank is full",
		Parameterized: true,
		DefaultArg:    "0",
		NormalizeArg:  normalizeBindArg,
		Place: func(arg string, nodes int) (Placer, error) {
			node, err := bindNode(arg, nodes)
			if err != nil {
				return nil, err
			}
			return bound{node: node}, nil
		},
	})
	Register(Descriptor{
		Name:      "least-loaded",
		Aliases:   []string{"leastloaded", "ll"},
		Abbrev:    "LL",
		Fault:     "allocates on the home node with the most free memory at fault time",
		Carrefour: true,
		Place:     func(string, int) (Placer, error) { return leastLoaded{}, nil },
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

// --- placement rules ---

// roundRobin covers round-4K, round-1G and interleave: pages go
// round-robin over the home nodes. For the eager kinds placement
// happened at domain creation (by the BootPlacer), so under Xen only
// stray faults — pages invalidated by an earlier first-touch phase —
// reach it; interleave boots lazily, so every page takes this path on
// its first access. Natively every kind is the lazy allocator placing
// round-robin.
type roundRobin struct {
	next int
}

func placeRoundRobin(string, int) (Placer, error) { return &roundRobin{}, nil }

func (p *roundRobin) PlaceNode(_ numa.NodeID, homes []numa.NodeID, _ FreeMem) numa.NodeID {
	node := homes[p.next%len(homes)]
	p.next++
	return node
}

// firstTouch places a page on the accessor's node (§3.1). Under Xen the
// policy also consumes the page queue (§4.2): released pages have their
// hypervisor entry invalidated so the next access faults here.
type firstTouch struct{}

func (firstTouch) PlaceNode(accessor numa.NodeID, _ []numa.NodeID, _ FreeMem) numa.NodeID {
	return accessor
}

// bound places every page on one preferred node; the caller's fallback
// covers the bank filling up.
type bound struct {
	node numa.NodeID
}

func (p bound) PlaceNode(numa.NodeID, []numa.NodeID, FreeMem) numa.NodeID { return p.node }

// leastLoaded places each page on the home node with the most free
// machine memory at fault time (ties break toward the first home,
// keeping runs deterministic).
type leastLoaded struct{}

func (leastLoaded) PlaceNode(_ numa.NodeID, homes []numa.NodeID, free FreeMem) numa.NodeID {
	best, bestFree := homes[0], free.FreeBytes(homes[0])
	for _, n := range homes[1:] {
		if f := free.FreeBytes(n); f > bestFree {
			best, bestFree = n, f
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
