package xen

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/pt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// VCPU is one virtual CPU pinned to a physical CPU. The evaluation pins
// every vCPU (§5.4.1), so the model has no vCPU migration; consolidated
// setups simply pin several vCPUs to one physical CPU.
type VCPU struct {
	ID   int
	PCPU numa.CPUID
}

// Domain is one virtual machine.
type Domain struct {
	ID    DomID
	Name  string
	VCPUs []VCPU

	hv        *Hypervisor
	table     *pt.HypervisorTable
	homes     []numa.NodeID
	physPages uint64

	bootKind policy.Kind
	// bootPlacer is the boot layout's eager placement hook (nil for
	// lazily booted domains: every entry starts invalid and the first
	// access faults into the runtime policy).
	bootPlacer policy.BootPlacer
	cfg        policy.Config
	pol        policy.Policy
	// CarrefourHook, when non-nil, receives page-queue batches so the
	// dynamic policy can track page liveness. Set by package carrefour.
	CarrefourHook func(ops []policy.PageOp)

	// frames records the boot-region blocks backing this domain so
	// releaseFrames can return them whole. Frames allocated page by page
	// are not listed here: their table entries carry the Owned bit.
	frames []frameAlloc

	// Observers used by the workload engine to keep per-region node
	// histograms in sync with the hypervisor page table.
	OnPlace      func(pfn mem.PFN, node numa.NodeID)
	OnInvalidate func(pfn mem.PFN)

	// Per-domain counters.
	Faults        uint64
	FaultTime     sim.Time
	Hypercalls    uint64
	HypercallTime sim.Time
	Migrated      uint64
	Invalidated   uint64

	// nextAllocNode implements the round-robin fallback of first-touch
	// when the preferred node is full.
	nextAllocNode int

	// passthrough reports whether the PCI passthrough driver is active
	// for this domain's I/O (requires the machine IOMMU and a policy
	// other than first-touch, §4.4.1).
	passthrough bool

	// accessor is the node of the vCPU performing the current access;
	// it parameterizes the fault handler during Translate.
	accessor numa.NodeID
}

type frameAlloc struct {
	mfn   mem.MFN
	order int
}

func newDomain(h *Hypervisor, id DomID, spec DomainSpec, pins []numa.CPUID, boot policy.BootPlacer, pol policy.Policy) *Domain {
	// A recycled shell (left behind by Hypervisor.Reset) carries the
	// previous domain's slice capacities; refilling it is bit-for-bit
	// equivalent to a cold build, minus the allocation work.
	d := h.takeShell()
	if d == nil {
		d = &Domain{table: pt.NewHypervisorTable()}
	}
	d.ID = id
	d.Name = spec.Name
	d.hv = h
	d.physPages = uint64(spec.MemBytes) / mem.PageSize
	d.bootKind = spec.Boot
	d.bootPlacer = boot
	d.cfg = policy.Config{Static: spec.Boot}
	d.pol = pol
	for i, c := range pins {
		d.VCPUs = append(d.VCPUs, VCPU{ID: i, PCPU: c})
	}
	for _, c := range pins {
		n := h.Topo.NodeOf(c)
		found := false
		for _, home := range d.homes {
			if home == n {
				found = true
				break
			}
		}
		if !found {
			d.homes = append(d.homes, n)
		}
	}
	// A lazily booted domain starts with every entry invalid; the IOMMU
	// cannot resolve invalid entries (§4.4.1), so passthrough is off
	// from the start.
	d.passthrough = h.Cfg.IOMMU && boot != nil
	d.table.SetFaultHandler(func(pfn mem.PFN, write bool, kind pt.FaultKind) {
		d.pol.HandleFault(d, pfn, d.accessor, kind)
	})
	return d
}

// recycleShell strips a domain down to its reusable storage — the
// page-table and slice capacities — and zeroes everything else, so
// newDomain refills it exactly as it fills a zero literal. The domain's
// frames are NOT returned to the allocator: recycling happens only from
// Hypervisor.Reset, which restores the whole allocator to pristine
// shape wholesale.
func (d *Domain) recycleShell() {
	d.table.Reset()
	*d = Domain{table: d.table, frames: d.frames[:0], VCPUs: d.VCPUs[:0], homes: d.homes[:0]}
}

// populate eagerly builds the physical address space through the boot
// layout's placement hook; lazily booted domains place nothing here.
func (d *Domain) populate() error {
	if d.bootPlacer == nil {
		return nil
	}
	return d.bootPlacer(d)
}

// releaseFrames returns all machine memory to the allocator; CreateDomain
// calls it when populating a domain fails. Owned pages are freed by a
// walk of the table in PFN order: each Free reshapes the buddy free
// lists, so the order decides every later allocation.
func (d *Domain) releaseFrames() {
	for _, f := range d.frames {
		d.hv.Alloc.Free(f.mfn, f.order)
	}
	d.frames = nil
	for pfn := mem.PFN(0); pfn < mem.PFN(d.physPages); pfn++ {
		if e := d.table.Lookup(pfn); e.Owned {
			d.table.Invalidate(pfn)
			d.hv.Alloc.Free(e.MFN, mem.Order4K)
		}
	}
}

// --- policy.DomainOps (the internal interface, §4.1) ---

// HomeNodes returns the domain's home nodes.
func (d *Domain) HomeNodes() []numa.NodeID { return d.homes }

// Table returns the domain's hypervisor page table.
func (d *Domain) Table() *pt.HypervisorTable { return d.table }

// AllocFrameOn allocates a 4 KiB machine frame on node, falling back
// round-robin to the home nodes then to every node, mirroring Linux's
// behaviour when the preferred bank is full (§3.1).
func (d *Domain) AllocFrameOn(node numa.NodeID) (mem.MFN, error) {
	if mfn, err := d.hv.Alloc.Alloc(node, mem.Order4K); err == nil {
		return mfn, nil
	}
	for range d.homes {
		n := d.homes[d.nextAllocNode%len(d.homes)]
		d.nextAllocNode++
		if n == node {
			continue
		}
		if mfn, err := d.hv.Alloc.Alloc(n, mem.Order4K); err == nil {
			return mfn, nil
		}
	}
	for i := 0; i < d.hv.Topo.NumNodes(); i++ {
		n := numa.NodeID(i)
		if mfn, err := d.hv.Alloc.Alloc(n, mem.Order4K); err == nil {
			return mfn, nil
		}
	}
	return mem.NoMFN, fmt.Errorf("xen: machine out of memory: %w", mem.ErrNoMemory)
}

// FreeFrame returns one 4 KiB frame.
func (d *Domain) FreeFrame(mfn mem.MFN) { d.hv.Alloc.Free(mfn, mem.Order4K) }

// FreeBytes reports the free machine memory on node, for load-aware
// policies.
func (d *Domain) FreeBytes(node numa.NodeID) int64 { return d.hv.Alloc.FreeBytes(node) }

// --- policy.BootOps (eager boot placement) ---

// RegionOrders returns the hypervisor's scaled huge and mid region
// orders.
func (d *Domain) RegionOrders() (huge, mid int) { return d.hv.Cfg.HugeOrder, d.hv.Cfg.MidOrder }

// AllocRegion allocates one 2^order block on node, without fallback.
func (d *Domain) AllocRegion(node numa.NodeID, order int) (mem.MFN, error) {
	return d.hv.Alloc.Alloc(node, order)
}

// MapRegion maps the 2^order frames of block phys-contiguously starting
// at base, with the ownership bit clear. The block is recorded as a
// single allocation, so releaseFrames returns it whole; pages inside it
// individually invalidated later stay owned by the block record (see
// InvalidatePage).
func (d *Domain) MapRegion(base mem.PFN, block mem.MFN, order int) {
	d.frames = append(d.frames, frameAlloc{mfn: block, order: order})
	// Top page first, so the table grows once per region.
	for i := mem.FramesOf(order); i > 0; i-- {
		d.table.Map(base+mem.PFN(i-1), block+mem.MFN(i-1))
	}
}

// MapPage installs pfn→mfn with the ownership bit set, so the frame is
// freed with the mapping, and notifies the placement observer.
func (d *Domain) MapPage(pfn mem.PFN, mfn mem.MFN) {
	d.table.MapOwned(pfn, mfn)
	if d.OnPlace != nil {
		d.OnPlace(pfn, d.hv.Alloc.NodeOf(mfn))
	}
}

// InvalidatePage clears pfn's entry and frees its frame; the next access
// faults into the policy. Part of the first-touch implementation.
func (d *Domain) InvalidatePage(pfn mem.PFN) {
	e := d.table.Lookup(pfn)
	if !e.Valid {
		return
	}
	d.table.Invalidate(pfn)
	d.Invalidated++
	d.hv.EntriesFlushed++
	if e.Owned {
		d.hv.Alloc.Free(e.MFN, mem.Order4K)
	}
	// Frames inside eager blocks (round-1G/round-4K boot regions) stay
	// owned by the block record; they are reused only after the block is
	// torn down. This wastes the frame but never double-frees — and is
	// exactly why the paper boots first-touch domains with round-4K.
	if d.OnInvalidate != nil {
		d.OnInvalidate(pfn)
	}
}

// MigratePage implements the second function of the internal interface:
// write-protect the entry, copy the page, remap it on the target node and
// free the old frame (§4.1). It reports whether the page moved.
func (d *Domain) MigratePage(pfn mem.PFN, to numa.NodeID) bool {
	e := d.table.Lookup(pfn)
	if !e.Valid {
		return false
	}
	if d.hv.Alloc.NodeOf(e.MFN) == to {
		return false
	}
	newMFN, err := d.hv.Alloc.Alloc(to, mem.Order4K)
	if err != nil {
		return false // target node full: leave the page where it is
	}
	d.table.WriteProtect(pfn)
	// Copy happens here; the time cost is charged by the caller through
	// CostMigratePage, the traffic through the load accumulator.
	d.table.MapOwned(pfn, newMFN)
	if e.Owned {
		d.hv.Alloc.Free(e.MFN, mem.Order4K)
	}
	d.Migrated++
	d.hv.PagesMigrated++
	d.hv.MigrationTime += CostMigratePage
	d.hv.Trace.Record(trace.Event{
		Time: d.hv.Eng.Now(), Kind: trace.KindMigrate, Dom: int(d.ID),
		Arg0: uint64(pfn), Arg1: uint64(to),
	})
	if d.OnPlace != nil {
		d.OnPlace(pfn, to)
	}
	return true
}

// --- guest-facing operations ---

// Policy returns the active policy configuration.
func (d *Domain) Policy() policy.Config { return d.cfg }

// Passthrough reports whether the PCI passthrough driver is active.
func (d *Domain) Passthrough() bool { return d.passthrough }

// PhysPages returns the size of the physical address space in pages.
func (d *Domain) PhysPages() uint64 { return d.physPages }

// NodeOfPCPU returns the node of vCPU v's physical CPU.
func (d *Domain) NodeOfPCPU(v int) numa.NodeID {
	return d.hv.Topo.NodeOf(d.VCPUs[v].PCPU)
}

// HypercallSetPolicy is the first hypercall of the external interface
// (§4.2.1): switch the static policy and/or toggle Carrefour. The
// target policy is resolved through the registry; boot-only layouts
// (round-1G) are rejected at run time, as in the paper. The returned
// duration is the cost charged to the calling vCPU.
//
// The Carrefour fields (on/off and variant) recorded here are the
// domain's guest-visible configuration; the simulation's Carrefour
// controller itself is configured per engine.Instance at build time,
// so — like toggling Carrefour — changing the variant mid-run updates
// Policy() and traces but not an already-running engine's sampler.
func (d *Domain) HypercallSetPolicy(cfg policy.Config) (sim.Time, error) {
	cost := CostHypercall
	d.Hypercalls++
	d.hv.Hypercalls++
	// Canonicalize so aliases and case variants ("ft", "BIND:03")
	// compare equal to the stored boot/current kinds.
	desc, arg, canon, err := policy.Resolve(cfg.Static)
	if err != nil {
		return cost, fmt.Errorf("xen: %w", err)
	}
	cfg.Static = canon
	if desc.BootOnly && d.bootKind != cfg.Static {
		return cost, fmt.Errorf("xen: %s is a boot option, not a runtime policy (§4.2.1)", cfg.Static)
	}
	// Config-shape rules (Carrefour stackability, variant validity) are
	// the registry's; only the boot-kind check above is domain-specific.
	if err := policy.CheckConfig(cfg); err != nil {
		return cost, fmt.Errorf("xen: %w", err)
	}
	// Build the new policy before any state changes: a rejected switch
	// must leave the domain untouched (in particular its passthrough
	// driver).
	pol := d.pol
	if cfg.Static != d.cfg.Static {
		pol, err = desc.Runtime(arg, d.hv.Topo.NumNodes())
		if err != nil {
			return cost, fmt.Errorf("xen: %w", err)
		}
	}
	if desc.UsesPageQueue && d.hv.Cfg.IOMMU && d.passthrough {
		// §4.4.1: the IOMMU cannot resolve invalid entries, so the
		// passthrough driver must be disabled for entry-invalidating
		// policies.
		d.passthrough = false
		d.hv.PassthroughOffs++
	}
	d.pol = pol
	d.cfg = cfg
	d.HypercallTime += cost
	d.hv.HypercallTime += cost
	d.hv.Trace.Record(trace.Event{
		Time: d.hv.Eng.Now(), Kind: trace.KindPolicySwitch, Dom: int(d.ID),
		Arg0: uint64(policy.IndexOf(cfg.Static)),
	})
	return cost, nil
}

// HypercallPageQueue is the second hypercall of the external interface
// (§4.2.3): deliver one batched queue of page allocations and releases.
// The returned duration is the hypercall's cost, dominated by entry
// invalidation (§4.2.4).
func (d *Domain) HypercallPageQueue(ops []policy.PageOp) sim.Time {
	d.Hypercalls++
	d.hv.Hypercalls++
	invalidated := d.pol.OnPageQueue(d, ops)
	if d.CarrefourHook != nil {
		d.CarrefourHook(ops)
	}
	cost := CostHypercall + CostQueueSend + sim.Time(invalidated)*CostInvalidateEntry
	d.HypercallTime += cost
	d.hv.HypercallTime += cost
	d.hv.Trace.Record(trace.Event{
		Time: d.hv.Eng.Now(), Kind: trace.KindHypercall, Dom: int(d.ID),
		Arg0: uint64(len(ops)), Arg1: uint64(invalidated),
	})
	return cost
}

// Touch simulates one guest access to a physical page by a vCPU whose
// physical CPU sits on accessor. It resolves hypervisor faults through
// the active policy and returns the backing frame's node plus the time
// spent in the hypervisor (zero on the fast path).
func (d *Domain) Touch(pfn mem.PFN, accessor numa.NodeID, write bool) (numa.NodeID, sim.Time) {
	if pfn >= mem.PFN(d.physPages) {
		panic(fmt.Sprintf("xen: domain %q touching PFN %d beyond %d pages", d.Name, pfn, d.physPages))
	}
	before := d.table.Faults + d.table.WriteProtFaults
	d.accessor = accessor
	mfn := d.table.Translate(pfn, write)
	faults := d.table.Faults + d.table.WriteProtFaults - before
	var cost sim.Time
	if faults > 0 {
		cost = sim.Time(faults) * (CostHVFault + CostFrameAlloc)
		d.Faults += faults
		d.hv.PageFaults += faults
		d.FaultTime += cost
		d.hv.FaultTime += cost
		d.hv.Trace.Record(trace.Event{
			Time: d.hv.Eng.Now(), Kind: trace.KindFault, Dom: int(d.ID),
			Arg0: uint64(pfn), Arg1: uint64(accessor),
		})
	}
	return d.hv.Alloc.NodeOf(mfn), cost
}

// NodeOfPFN returns the node currently backing pfn without faulting;
// ok is false when the entry is invalid.
func (d *Domain) NodeOfPFN(pfn mem.PFN) (numa.NodeID, bool) {
	mfn, ok := d.table.TranslateNoFault(pfn)
	if !ok {
		return 0, false
	}
	return d.hv.Alloc.NodeOf(mfn), true
}
