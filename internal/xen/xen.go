// Package xen models the hypervisor: domain lifecycle (dom0 and domU),
// vCPU placement with home-node packing, the eager memory allocation of
// the round-1G default policy, the hypervisor page table per domain, the
// two hypercalls of the paper's external interface, and the
// write-protect → copy → remap page-migration mechanism of the internal
// interface.
package xen

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DomID identifies a domain. Dom0 is always domain 0.
type DomID int

// Config tunes the hypervisor for a (possibly scaled-down) machine.
type Config struct {
	// HugeOrder is the buddy order of the "1 GiB" allocation regions of
	// the round-1G policy. On a full-size machine this is mem.Order1G;
	// scaled-down simulations shrink it in lockstep with the node bank
	// size so the policy keeps its shape.
	HugeOrder int
	// MidOrder is the order of the "2 MiB" fallback regions.
	MidOrder int
	// IOMMU reports whether the machine's IOMMU is enabled. The PCI
	// passthrough driver needs it; the first-touch policy is
	// incompatible with it (§4.4.1), so selecting first-touch on a
	// domain force-disables passthrough for that domain.
	IOMMU bool
}

// DefaultConfig returns the configuration for the unscaled AMD48.
func DefaultConfig() Config {
	return Config{HugeOrder: mem.Order1G, MidOrder: mem.Order2M, IOMMU: true}
}

// ScaledConfig shrinks the region orders by log2(scale) to match a
// machine whose node banks were divided by scale. Scale must be a power
// of two between 1 and 512.
func ScaledConfig(scale int) Config {
	shift := 0
	for s := scale; s > 1; s >>= 1 {
		if s%2 != 0 {
			panic(fmt.Sprintf("xen: scale %d is not a power of two", scale))
		}
		shift++
	}
	if shift > 9 {
		panic(fmt.Sprintf("xen: scale %d too large", scale))
	}
	cfg := DefaultConfig()
	cfg.HugeOrder -= shift
	cfg.MidOrder -= shift
	if cfg.MidOrder < 0 {
		cfg.MidOrder = 0
	}
	return cfg
}

// Cost model of hypervisor operations, in virtual time. The page-queue
// costs are chosen so that a full 64-entry batch spends 87.5 % of its
// time invalidating entries and 12.5 % sending the queue, the split the
// paper measures in §4.2.4.
const (
	// CostHypercall is the fixed world-switch cost of any hypercall
	// (guest → hypervisor → guest).
	CostHypercall = 1 * sim.Microsecond
	// CostQueueSend is the cost of transferring one page-queue batch to
	// the hypervisor, excluding per-entry processing.
	CostQueueSend = 2200 * sim.Nanosecond
	// CostInvalidateEntry is the per-page cost of invalidating a
	// hypervisor page-table entry (locking, PTE clear, TLB shootdown
	// share). 64 entries × 350 ns = 22.4 µs vs 3.2 µs of send+hypercall:
	// 87.5 % / 12.5 %.
	CostInvalidateEntry = 350 * sim.Nanosecond
	// CostHVFault is a hypervisor page fault round trip (VM exit,
	// walk, resolve, VM entry), excluding frame allocation.
	CostHVFault = 1500 * sim.Nanosecond
	// CostFrameAlloc is one buddy allocation inside the hypervisor.
	CostFrameAlloc = 300 * sim.Nanosecond
	// CostMigratePage is the fixed cost of migrating one page
	// (write-protect, 4 KiB copy, remap, TLB shootdown), excluding the
	// interconnect traffic it induces (charged by the caller).
	CostMigratePage = 6 * sim.Microsecond
)

// Hypervisor owns the machine.
type Hypervisor struct {
	Topo  *numa.Topology
	Alloc *mem.Allocator
	Eng   *sim.Engine
	Cfg   Config

	// Trace, when non-nil, records hypercalls, faults, migrations and
	// policy switches.
	Trace *trace.Ring

	// domains is indexed by DomID: IDs are handed out densely by
	// CreateDomain, and Reset truncates back to dom0.
	domains []*Domain
	// cpuUse counts vCPUs assigned to each physical CPU (several in
	// consolidated setups).
	cpuUse []int

	// shells holds stripped domain carcasses left behind by Reset;
	// newDomain pops one instead of allocating a fresh page table. Empty
	// outside warm-pool use, so cold-build paths are untouched.
	shells []*Domain

	// dom0Mem is dom0's memory size, kept so Reset boots dom0 again.
	dom0Mem int64

	// Counters.
	Hypercalls      uint64
	HypercallTime   sim.Time
	PageFaults      uint64
	PagesMigrated   uint64
	EntriesFlushed  uint64
	MigrationTime   sim.Time
	FaultTime       sim.Time
	PassthroughOffs uint64 // times passthrough was disabled for first-touch
}

// New boots a hypervisor on topo. It creates dom0 pinned to the CPUs of
// node 0 (the paper's setting, §5.2) holding dom0MemBytes of memory
// placed on node 0.
func New(topo *numa.Topology, eng *sim.Engine, cfg Config, dom0MemBytes int64) (*Hypervisor, error) {
	h := &Hypervisor{
		Topo:    topo,
		Alloc:   mem.NewAllocator(topo),
		Eng:     eng,
		Cfg:     cfg,
		cpuUse:  make([]int, topo.NumCPUs()),
		dom0Mem: dom0MemBytes,
	}
	if err := h.bootDom0(); err != nil {
		return nil, err
	}
	return h, nil
}

// bootDom0 creates dom0 on a machine with no domains: pinned to the
// CPUs of node 0, its memory laid out round-1G from node 0.
func (h *Hypervisor) bootDom0() error {
	cpus := h.Topo.Nodes[0].CPUs
	spec := DomainSpec{Name: "dom0", VCPUs: len(cpus), MemBytes: h.dom0Mem, PinCPUs: cpus, Boot: policy.Round1G}
	if _, err := h.CreateDomain(spec); err != nil {
		return fmt.Errorf("xen: creating dom0: %w", err)
	}
	return nil
}

// DomainSpec describes a domain to create.
type DomainSpec struct {
	Name     string
	VCPUs    int
	MemBytes int64
	// PinCPUs optionally pins vCPU i to PinCPUs[i]. When empty the
	// builder packs the domain onto the minimal set of underloaded
	// nodes, reserving one physical CPU per vCPU (§3.3).
	PinCPUs []numa.CPUID
	// Boot selects the boot-time memory layout: any registered policy
	// kind that may be booted — eagerly placed like Round4K (the
	// paper's default, §4.2.1) or Round1G (Xen's stock behaviour, kept
	// as a boot option and the default when empty), or lazily for kinds
	// without a boot placer (every entry starts invalid and faults into
	// the policy). Runtime-only kinds such as FirstTouch are rejected.
	Boot policy.Kind
}

// CreateDomain builds a domain: chooses home nodes, pins vCPUs, eagerly
// populates the physical address space according to the boot policy, and
// installs the matching runtime policy.
func (h *Hypervisor) CreateDomain(spec DomainSpec) (*Domain, error) {
	if spec.VCPUs <= 0 {
		return nil, fmt.Errorf("xen: domain %q needs at least one vCPU", spec.Name)
	}
	if spec.MemBytes < mem.PageSize {
		return nil, fmt.Errorf("xen: domain %q needs at least one page", spec.Name)
	}
	if spec.Boot == "" {
		spec.Boot = policy.Round1G // Xen's stock default layout
	}
	// Resolve once and keep the canonical kind: bootKind is compared
	// against runtime policies later, and an alias spelling ("r1g")
	// must not defeat those checks.
	bdesc, barg, bootCanon, err := policy.Resolve(spec.Boot)
	if err != nil {
		return nil, fmt.Errorf("xen: domain %q: %w", spec.Name, err)
	}
	spec.Boot = bootCanon
	if bdesc.RuntimeOnly {
		return nil, fmt.Errorf("xen: %s is not a boot layout; boot round-4K and switch (§4.2.1)", spec.Boot)
	}
	pol, err := bdesc.Runtime(barg, h.Topo.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("xen: domain %q: %w", spec.Name, err)
	}
	pins := spec.PinCPUs
	if len(pins) == 0 {
		pins, err = h.packVCPUs(spec.VCPUs, spec.MemBytes)
		if err != nil {
			return nil, err
		}
	} else if len(pins) != spec.VCPUs {
		return nil, fmt.Errorf("xen: %d pins for %d vCPUs", len(pins), spec.VCPUs)
	}
	d := newDomain(h, DomID(len(h.domains)), spec, pins, bdesc.Boot, pol)
	if err := d.populate(); err != nil {
		d.releaseFrames()
		return nil, fmt.Errorf("xen: populating domain %q: %w", spec.Name, err)
	}
	h.domains = append(h.domains, d)
	// Dom0 is mostly idle (it only backs I/O) and the paper pins it to
	// node 0 alongside guest vCPUs; it does not count against CPU
	// shares.
	if d.ID != 0 {
		for _, c := range pins {
			h.cpuUse[c]++
		}
	}
	return d, nil
}

// packVCPUs implements the home-node packing of §3.3: pick the minimal
// number of underloaded nodes that can host one physical CPU per vCPU
// and the domain's memory, preferring the least-loaded nodes.
func (h *Hypervisor) packVCPUs(vcpus int, memBytes int64) ([]numa.CPUID, error) {
	type cand struct {
		node     numa.NodeID
		freeCPUs []numa.CPUID
		freeMem  int64
	}
	var cands []cand
	for _, n := range h.Topo.Nodes {
		c := cand{node: n.ID, freeMem: h.Alloc.FreeBytes(n.ID)}
		for _, cpu := range n.CPUs {
			if h.cpuUse[cpu] == 0 {
				c.freeCPUs = append(c.freeCPUs, cpu)
			}
		}
		cands = append(cands, c)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if len(cands[i].freeCPUs) != len(cands[j].freeCPUs) {
			return len(cands[i].freeCPUs) > len(cands[j].freeCPUs)
		}
		if cands[i].freeMem != cands[j].freeMem {
			return cands[i].freeMem > cands[j].freeMem
		}
		return cands[i].node < cands[j].node
	})
	var pins []numa.CPUID
	var memOK int64
	for _, c := range cands {
		if len(pins) >= vcpus && memOK >= memBytes {
			break
		}
		for _, cpu := range c.freeCPUs {
			if len(pins) < vcpus {
				pins = append(pins, cpu)
			}
		}
		memOK += c.freeMem
	}
	if len(pins) < vcpus {
		return nil, fmt.Errorf("xen: not enough free physical CPUs for %d vCPUs", vcpus)
	}
	if memOK < memBytes {
		return nil, fmt.Errorf("xen: not enough free memory on packed nodes")
	}
	return pins, nil
}

// CPULoad returns the number of vCPUs sharing physical CPU c.
func (h *Hypervisor) CPULoad(c numa.CPUID) int { return h.cpuUse[c] }

// takeShell pops a recycled domain shell, or returns nil when none is
// available (the cold-build case).
func (h *Hypervisor) takeShell() *Domain {
	if n := len(h.shells); n > 0 {
		d := h.shells[n-1]
		h.shells[n-1] = nil
		h.shells = h.shells[:n-1]
		return d
	}
	return nil
}

// Reset returns the hypervisor to its just-booted state so a warm-pool
// lease can build new guest domains on it: every domain, dom0 included,
// is torn down into a shell that the next CreateDomain refills, the
// buddy allocator is restored to pristine shape wholesale, all counters
// are zeroed, and dom0 boots again exactly as New boots it. The machine
// is then bit-identical to a freshly booted one. Reset returns an error
// only when dom0 fails to boot, which the warm pool answers by dropping
// the machine and cold-building.
func (h *Hypervisor) Reset() error {
	// Shells are popped last-in first-out: pushing dom0 last hands every
	// domain ID its own shell back, so each keeps storage sized for it.
	for i := len(h.domains) - 1; i >= 0; i-- {
		h.domains[i].recycleShell()
		h.shells = append(h.shells, h.domains[i])
	}
	clear(h.domains)
	h.domains = h.domains[:0]
	clear(h.cpuUse)
	h.Hypercalls, h.HypercallTime = 0, 0
	h.PageFaults, h.PagesMigrated = 0, 0
	h.EntriesFlushed = 0
	h.MigrationTime, h.FaultTime = 0, 0
	h.PassthroughOffs = 0
	h.Alloc.Reset()
	return h.bootDom0()
}
