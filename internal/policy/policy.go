// Package policy defines the paper's contribution: the interface that
// lets NUMA placement policies live inside the hypervisor (§4), and an
// open registry of policies built on it. The three static policies the
// paper evaluates (first-touch, round-4K, round-1G) are registered here;
// further policies (interleave, bind:<node>, least-loaded, or any
// out-of-tree Descriptor) plug into the same registry without touching
// the hypervisor, guest or native layers. The dynamic Carrefour policy
// is layered on the same interface by package carrefour.
//
// The interface has two sides, mirroring Figure 3 of the paper:
//
//   - The internal interface (DomainOps) is what a policy uses to talk to
//     the hypervisor: map a physical page to a machine frame on a chosen
//     node, and migrate a physical page to a new node.
//   - The external interface is what the guest operating system uses to
//     talk to the policy: a hypercall to select the policy
//     (HypercallSetPolicy) and a hypercall carrying the batched queue of
//     recently allocated and released physical pages
//     (HypercallPageQueue, §4.2.3–4.2.4).
//
// A third, eager side — the BootPlacer — runs at domain build time and
// populates the physical address space before the first instruction
// (round-4K and round-1G layouts); policies without one boot lazily:
// every entry starts invalid and the first access faults into the
// runtime policy.
package policy

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/pt"
	"repro/internal/sim"
)

// Kind names a registered placement policy. It is an open string, not a
// closed enum: the canonical spelling of a registered Descriptor,
// optionally carrying a parameter after a colon ("bind:3"). Lookups are
// case-insensitive; the canonical casing below is what String() and
// reports show.
type Kind string

// Kinds of the built-in policies (registered in builtin.go).
const (
	// Round1G is Xen's default: memory allocated eagerly at domain
	// creation in 1 GiB regions round-robin across the home nodes (§3.3).
	Round1G Kind = "round-1G"
	// Round4K statically maps each 4 KiB physical page round-robin
	// across the home nodes at domain creation (§3.2).
	Round4K Kind = "round-4K"
	// FirstTouch maps a physical page on the node of the vCPU that first
	// accesses it, using hypervisor page faults plus the page-queue
	// hypercall to learn about guest-side page reuse (§3.1, §4.2).
	FirstTouch Kind = "first-touch"
	// Interleave is round-4K's round-robin placement without the eager
	// boot pass: the domain boots with every entry invalid and each
	// first access faults, allocating round-robin across the home nodes.
	Interleave Kind = "interleave"
	// LeastLoaded allocates each faulted page on the home node with the
	// most free machine memory at fault time.
	LeastLoaded Kind = "least-loaded"
	// Adaptive is the in-hypervisor form of the paper's §3.5.2 advisor
	// rule: probe with least-loaded placement, then switch the domain
	// to first-touch through HypercallSetPolicy once the placement
	// imbalance stabilizes.
	Adaptive Kind = "adaptive"
)

func (k Kind) String() string { return string(k) }

// Canonical Carrefour variant names (Config.CarrefourVariant): the
// heuristic subsets the paper's §7 proposes as ablation knobs. The
// empty string is the full policy.
const (
	CarrefourFull            = ""
	CarrefourMigrationOnly   = "migration"
	CarrefourReplicationOnly = "replication"
)

// ValidCarrefourVariant reports whether v is a canonical Carrefour
// variant name.
func ValidCarrefourVariant(v string) bool {
	switch v {
	case CarrefourFull, CarrefourMigrationOnly, CarrefourReplicationOnly:
		return true
	}
	return false
}

// Config selects a static policy and optionally stacks the dynamic
// Carrefour policy on top, matching the combinations the paper
// evaluates; CarrefourVariant further restricts Carrefour to one of
// its heuristics (§7's ablation knobs).
type Config struct {
	Static    Kind
	Carrefour bool
	// CarrefourVariant selects a heuristic subset when Carrefour is
	// stacked: "" (full), CarrefourMigrationOnly (locality migration
	// only) or CarrefourReplicationOnly (replication only). It must be
	// empty when Carrefour is false.
	CarrefourVariant string
}

func (c Config) String() string {
	s := c.Static.String()
	if c.Carrefour {
		s += "/carrefour"
		if c.CarrefourVariant != "" {
			s += ":" + c.CarrefourVariant
		}
	}
	return s
}

// Hypercall numbers of the external interface.
const (
	// HypercallSetPolicy dynamically changes the NUMA policy of a
	// running virtual machine (§4.2.1).
	HypercallSetPolicy = 40
	// HypercallPageQueue communicates a queue of recently allocated and
	// released physical pages (§4.2.3).
	HypercallPageQueue = 41
)

// PageOpKind tags entries of the page queue.
type PageOpKind uint8

const (
	// OpAlloc records that the guest allocated the page to a process.
	OpAlloc PageOpKind = iota
	// OpRelease records that the guest returned the page to its free
	// list (after zeroing it, §4.4.2).
	OpRelease
)

func (k PageOpKind) String() string {
	if k == OpAlloc {
		return "alloc"
	}
	return "release"
}

// PageOp is one entry of the batched page queue: the operation and the
// physical page it concerns (§4.2.4).
type PageOp struct {
	Kind PageOpKind
	PFN  mem.PFN
}

// DomainOps is the internal interface (§4.1): everything a NUMA policy
// may ask of the hypervisor for one domain. Package xen provides the
// implementation.
type DomainOps interface {
	// HomeNodes returns the domain's home nodes in a fixed order.
	HomeNodes() []numa.NodeID
	// Table returns the domain's hypervisor page table.
	Table() *pt.HypervisorTable
	// AllocFrameOn allocates one machine frame on node, falling back
	// round-robin to the other home nodes (then any node) when the bank
	// is full, as Linux's first-touch does (§3.1).
	AllocFrameOn(node numa.NodeID) (mem.MFN, error)
	// FreeFrame returns a machine frame to the machine allocator.
	FreeFrame(mfn mem.MFN)
	// FreeMem reports the free machine memory per node, for load-aware
	// placement rules such as least-loaded.
	FreeMem
	// MapPage installs pfn→mfn and notifies placement observers.
	// This is the first function of the internal interface.
	MapPage(pfn mem.PFN, mfn mem.MFN)
	// MigratePage moves pfn's backing frame to node, using the
	// write-protect → copy → remap mechanism. This is the second
	// function of the internal interface. It reports whether the page
	// actually moved (false when already on node or unmapped).
	MigratePage(pfn mem.PFN, to numa.NodeID) bool
	// InvalidatePage clears pfn's entry, frees its frame, and notifies
	// observers; subsequent accesses fault into the policy.
	InvalidatePage(pfn mem.PFN)
}

// BootOps extends DomainOps with what eager boot placement needs: the
// size of the physical space and block-grained (huge-region) allocation.
type BootOps interface {
	DomainOps
	// PhysPages is the size of the physical address space in pages.
	PhysPages() uint64
	// RegionOrders returns the machine's huge ("1 GiB") and mid
	// ("2 MiB") region buddy orders, pre-scaled for the machine.
	RegionOrders() (huge, mid int)
	// AllocRegion allocates one 2^order block on node, without
	// fallback.
	AllocRegion(node numa.NodeID, order int) (mem.MFN, error)
	// MapRegion maps the 2^order frames of block phys-contiguously
	// starting at base, recording block ownership for teardown.
	MapRegion(base mem.PFN, block mem.MFN, order int)
}

// BootPlacer eagerly populates a domain's physical address space at
// build time, before the guest runs. A nil BootPlacer means the policy
// boots lazily: every hypervisor entry starts invalid, the first access
// to each page faults into the runtime Policy, and — because the IOMMU
// cannot resolve invalid entries (§4.4.1) — PCI passthrough is disabled
// for the domain.
type BootPlacer func(b BootOps) error

// FreeMem reports the free machine memory on a node. *mem.Allocator
// and xen.Domain implement it; placement rules receive it as an
// interface, never as a method value, so no fault allocates.
type FreeMem interface {
	FreeBytes(node numa.NodeID) int64
}

// Placer is a policy's placement rule, the one piece of a policy both
// backends run: it picks the node for one faulted page. accessor is the
// node of the faulting CPU; homes are the nodes the page may live on in
// a fixed order (the domain's home nodes under Xen, every node
// natively); free reports free memory for load-aware rules. The caller
// allocates on the returned node, falling back when its bank is full.
type Placer interface {
	PlaceNode(accessor numa.NodeID, homes []numa.NodeID, free FreeMem) numa.NodeID
}

// PolicySwitcher is the optional DomainOps extension exposing the
// external interface's SetPolicy hypercall (§4.2.1) to in-hypervisor
// callers: the active policy configuration and the entry point to
// replace it. Package xen's Domain implements it; a policy that decides
// it is no longer the right one (adaptive) uses it to install its
// successor through exactly the path a guest would.
type PolicySwitcher interface {
	// Policy returns the domain's active configuration.
	Policy() Config
	// HypercallSetPolicy switches the static policy and/or Carrefour
	// stacking, returning the hypercall cost.
	HypercallSetPolicy(cfg Config) (sim.Time, error)
}

// Policy is the hypervisor-resident runtime of one domain's placement
// policy: the registered Placer behind the fault path, plus the
// page-queue reconciliation of policies that consume the queue. Build
// one with Descriptor.Runtime.
type Policy struct {
	placer Placer
	queue  bool
}

// HandleFault resolves a hypervisor page fault on pfn caused by a vCPU
// running on accessor, leaving the entry valid. A write-protect fault
// means a migration finished, so the entry is just unprotected;
// otherwise the placer picks a node and the frame is allocated and
// mapped through the internal interface. When the adaptive rule decides
// on this fault, the domain then switches to first-touch.
func (p *Policy) HandleFault(d DomainOps, pfn mem.PFN, accessor numa.NodeID, kind pt.FaultKind) {
	if kind == pt.FaultWriteProtected {
		d.Table().Unprotect(pfn)
		return
	}
	a, _ := p.placer.(*adaptive)
	probing := a != nil && !a.switched
	node := p.placer.PlaceNode(accessor, d.HomeNodes(), d)
	mfn, err := d.AllocFrameOn(node)
	if err != nil {
		panic(fmt.Sprintf("policy: fault allocation failed: %v", err))
	}
	d.MapPage(pfn, mfn)
	if probing && a.switched {
		// Last step: the switch replaces the domain's Policy, p included.
		switchToFirstTouch(d)
	}
}

// OnPageQueue consumes one batched page queue sent by the guest through
// HypercallPageQueue and returns the number of entries whose hypervisor
// page-table entry was invalidated (the dominant cost of the hypercall,
// §4.2.4). Policies that do not use the queue ignore it.
//
// The reconciliation protocol is §4.2.4's: scan the queue from the most
// recent operation, keep the first (most recent) operation seen for
// each page, invalidate pages whose latest operation is a release, and
// leave reallocated pages where they are (copying their content would
// be too costly in the common case). A release is the latest operation
// on its page when no newer operation in the batch names the page; a
// batch holds at most QueueConfig.BatchSize operations (64 in the
// paper), so scanning the newer ones is cheaper than hashing every page
// into a visited set, and allocates nothing.
func (p *Policy) OnPageQueue(d DomainOps, ops []PageOp) int {
	if !p.queue {
		return 0
	}
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

// BootKind returns the boot layout used when kind is selected at domain
// build time: the kind itself when it may be booted, or Round4K for
// runtime-only policies (the paper boots first-touch domains round-4K
// and switches through the hypercall, §4.2.1).
func BootKind(kind Kind) (Kind, error) {
	desc, _, err := Describe(kind)
	if err != nil {
		return "", err
	}
	if desc.RuntimeOnly {
		return Round4K, nil
	}
	return kind, nil
}

// UsesPageQueue reports whether kind's policy consumes the guest page
// queue (false for unknown kinds).
func UsesPageQueue(kind Kind) bool {
	desc, _, err := Describe(kind)
	return err == nil && desc.UsesPageQueue
}

// Abbrev returns the paper's Table-4 shorthand for kind ("round-4K" →
// "R4K", "bind:3" → "B3"), or the kind itself when unknown.
func Abbrev(kind Kind) string {
	desc, arg, err := Describe(kind)
	if err != nil {
		return string(kind)
	}
	return desc.Abbrev + arg
}
