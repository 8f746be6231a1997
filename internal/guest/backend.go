package guest

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/iosim"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/pt"
	"repro/internal/sim"
	"repro/internal/xen"
)

// Backend adapts a Xen domain plus its guest OS to the engine's placement
// interface: region pages are guest physical pages, their placement is
// whatever the domain's hypervisor page table says, and migrations go
// through the internal interface.
type Backend struct {
	HV  *xen.Hypervisor
	Dom *xen.Domain
	OS  *OS
	// proc is the application process whose virtual address space backs
	// every region: Place goes through mmap plus guest-level first-touch
	// faulting, then through the hypervisor page table.
	proc *Process
	// regionVPN remembers each region's mmap starts for Release (one
	// per Place call).
	regionVPN map[*engine.Region][]pt.VPN
	cfg       policy.Config
	// contiguous caches the policy descriptor's huge-region flag: IO()
	// sits on the engine's per-epoch path and must not pay a registry
	// lookup (nor its lowercasing allocation) per call.
	contiguous bool
}

// RebuildBackend boots a guest on dom and selects the policy cfg through
// the external interface. The policy-switch cost (including the
// free-list flush when switching to first-touch) is charged once and
// reported.
//
// The guest kernel owns the bottom "GiB" region of the physical space
// (boot allocations live in low memory), so user allocations start in
// the whole round-1G regions — which is why small-footprint applications
// end up concentrated on one node under Xen's default policy.
//
// When prev is a backend of the same queue shape (from an earlier lease
// of the pooled machine), its guest OS, allocator, queue, process and
// maps are reset in place and rebound to dom instead of rebuilt. A nil
// or shape-mismatched prev is replaced by an empty backend, which the
// same reset then boots, so a cold build and a warm lease run the same
// code.
func RebuildBackend(prev *Backend, hv *xen.Hypervisor, dom *xen.Domain, qcfg QueueConfig, cfg policy.Config) (*Backend, sim.Time, error) {
	desc, _, canon, err := policy.Resolve(cfg.Static)
	if err != nil {
		return nil, 0, err
	}
	cfg.Static = canon
	kernelPages := uint64(1) << uint(hv.Cfg.HugeOrder)
	if kernelPages >= dom.PhysPages() {
		kernelPages = dom.PhysPages() / 4
	}
	b := prev
	if b == nil || b.OS.Queue.cfg != qcfg {
		g := &OS{Phys: new(PhysAlloc), Queue: NewPageQueue(dom, qcfg)}
		b = &Backend{OS: g, proc: g.NewProcess(1), regionVPN: make(map[*engine.Region][]pt.VPN)}
	}
	b.HV, b.Dom = hv, dom
	b.OS.reset(dom, kernelPages)
	b.proc.reset(b.OS)
	clear(b.regionVPN)
	b.cfg, b.contiguous = cfg, desc.Contiguous
	cost, err := b.OS.SetPolicy(cfg)
	if err != nil {
		return nil, 0, err
	}
	return b, cost, nil
}

// Name reports the platform and policy.
func (b *Backend) Name() string { return "xen/" + b.cfg.String() }

// Place materializes n pages of r through the full guest path: the
// process mmaps the region, each first touch takes a guest page fault
// that allocates a physical page and installs the virtual→physical
// translation, and the subsequent access resolves through the hypervisor
// page table, letting the active policy decide the machine placement
// (first-touch faults; static policies hit pre-mapped entries).
// Successive Place calls on the same region extend its mapping.
func (b *Backend) Place(r *engine.Region, n int, toucher numa.NodeID) (sim.Time, error) {
	if n <= 0 {
		return 0, nil
	}
	start, total, err := b.proc.Mmap(n)
	if err != nil {
		return total, fmt.Errorf("guest: placing region %s: %w", r.Name, err)
	}
	b.regionVPN[r] = append(b.regionVPN[r], start)
	for v := start; v < start+pt.VPN(n); v++ {
		pfn, cost, err := b.proc.Touch(v)
		if err != nil {
			return total, fmt.Errorf("guest: placing region %s: %w", r.Name, err)
		}
		node, hvCost := b.Dom.Touch(pfn, toucher, true)
		r.AddPage(pfn, node)
		total += cost + hvCost
	}
	return total, nil
}

// Migrate moves page i of r through the hypervisor's migration mechanism.
func (b *Backend) Migrate(r *engine.Region, i int, to numa.NodeID) bool {
	if !b.Dom.MigratePage(r.Pages[i], to) {
		return false
	}
	r.SetNode(i, to)
	return true
}

// Release unmaps every mmap region backing r: the physical pages return
// to the guest free list (zeroed), and the hypervisor is notified when
// the first-touch queue is active.
func (b *Backend) Release(r *engine.Region) sim.Time {
	var total sim.Time
	for _, start := range b.regionVPN[r] {
		cost, err := b.proc.Munmap(start)
		if err != nil {
			panic(fmt.Sprintf("guest: releasing region %s: %v", r.Name, err))
		}
		total += cost
	}
	delete(b.regionVPN, r)
	return total
}

// ChurnOverhead derives the analytic steady-state cost of the release
// notification path. It is zero unless the first-touch policy is active:
// only then does the guest forward page traffic (§4.2.3).
func (b *Backend) ChurnOverhead(releasesPerSec float64, threads int) float64 {
	if releasesPerSec <= 0 || !b.OS.QueueActive() {
		return 0
	}
	m := ChurnModel{Cfg: b.OS.Queue.cfg, Threads: threads}
	return m.OverheadFraction(1e9 / releasesPerSec)
}

// IO reports the DMA path: passthrough when the IOMMU is usable with the
// current policy, the dom0 split driver otherwise. Xen's hypervisor page
// table scatters guest-contiguous DMA buffers across nodes except under
// policies placing in contiguous huge regions (round-1G), which keep a
// buffer on one node.
func (b *Backend) IO() (iosim.Path, iosim.BufferPlacement) {
	path := iosim.PathDom0
	if b.Dom.Passthrough() {
		path = iosim.PathPassthrough
	}
	placement := iosim.BufferScattered
	if b.contiguous {
		placement = iosim.BufferSingleNode
	}
	return path, placement
}

// Virtualized is always true for a domain.
func (b *Backend) Virtualized() bool { return true }

// ThreadNode maps thread i to vCPU i's physical node.
func (b *Backend) ThreadNode(i int) numa.NodeID {
	return b.Dom.NodeOfPCPU(i % len(b.Dom.VCPUs))
}

// CPUShare divides the physical CPU among the vCPUs pinned to it.
func (b *Backend) CPUShare(i int) float64 {
	v := b.Dom.VCPUs[i%len(b.Dom.VCPUs)]
	load := b.HV.CPULoad(v.PCPU)
	if load < 1 {
		load = 1
	}
	return 1 / float64(load)
}

// HomeNodes returns the domain's home nodes.
func (b *Backend) HomeNodes() []numa.NodeID { return b.Dom.HomeNodes() }
