// Package guest models the para-virtualized guest operating system: its
// physical-page allocator (lazy, zero-on-free, LIFO reuse like Linux's
// buddy per-CPU lists), and the paper's modified free path — the
// partitioned page queue that batches allocation/release notifications
// into the HypercallPageQueue external interface (§4.2.3–4.2.4).
package guest

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/xen"
)

// Guest-side costs in virtual time.
const (
	// CostGuestFault is a guest-level page fault (lazy allocation path).
	CostGuestFault = 600 * sim.Nanosecond
	// CostZeroPage is filling a 4 KiB page with zeros on release
	// (§4.4.2).
	CostZeroPage = 400 * sim.Nanosecond
	// CostQueueAdd is appending one (op, page) pair to a page queue
	// under its lock, excluding any flush.
	CostQueueAdd = 60 * sim.Nanosecond
)

// PhysAlloc is the guest physical-page allocator: pages are handed out
// lowest-first the first time and reused LIFO afterwards, approximating
// Linux's allocator behaviour after boot.
type PhysAlloc struct {
	totalPages uint64
	nextFresh  uint64
	freed      []mem.PFN
	inUse      []bool // indexed by PFN
}

// Alloc returns one free physical page.
func (a *PhysAlloc) Alloc() (mem.PFN, error) {
	if n := len(a.freed); n > 0 {
		p := a.freed[n-1]
		a.freed = a.freed[:n-1]
		a.inUse[p] = true
		return p, nil
	}
	if a.nextFresh >= a.totalPages {
		return 0, fmt.Errorf("guest: out of physical memory (%d pages)", a.totalPages)
	}
	p := mem.PFN(a.nextFresh)
	a.nextFresh++
	a.inUse[p] = true
	return p, nil
}

// Free returns a page to the free list.
func (a *PhysAlloc) Free(p mem.PFN) {
	if uint64(p) >= a.totalPages || !a.inUse[p] {
		panic(fmt.Sprintf("guest: freeing page %d not in use", p))
	}
	a.inUse[p] = false
	a.freed = append(a.freed, p)
}

// InUse reports the number of allocated pages.
func (a *PhysAlloc) InUse() int {
	n := 0
	for _, used := range a.inUse {
		if used {
			n++
		}
	}
	return n
}

// Reset returns the allocator to its just-booted state for a physical
// space of totalPages, with the first reserved pages kernel-owned and
// never handed out, keeping the storage of the freed list and the
// in-use flags. A zero PhysAlloc is empty until its first Reset.
func (a *PhysAlloc) Reset(totalPages, reserved uint64) {
	if reserved >= totalPages {
		panic("guest: reserved pages exceed physical space")
	}
	a.totalPages = totalPages
	a.nextFresh = reserved
	a.freed = a.freed[:0]
	a.inUse = append(a.inUse[:0], make([]bool, totalPages)...)
}

// FreePages returns every currently-free page: the freed list plus all
// never-touched pages. Used to prime the hypervisor when switching to
// first-touch.
func (a *PhysAlloc) FreePages() []mem.PFN {
	out := make([]mem.PFN, 0, len(a.freed)+int(a.totalPages-a.nextFresh))
	out = append(out, a.freed...)
	for p := a.nextFresh; p < a.totalPages; p++ {
		out = append(out, mem.PFN(p))
	}
	return out
}

// ForEachFree visits every currently-free page in the same deterministic
// order FreePages returns them, without materializing the slice — the
// free-list flush on a policy switch covers the whole physical space, a
// multi-megabyte allocation when done by value.
func (a *PhysAlloc) ForEachFree(fn func(mem.PFN)) {
	for _, p := range a.freed {
		fn(p)
	}
	for p := a.nextFresh; p < a.totalPages; p++ {
		fn(mem.PFN(p))
	}
}

// QueueConfig shapes the page-queue driver, exposing the design choices
// of §4.2.4 for the ablation benches.
type QueueConfig struct {
	// Queues is the number of independent queues; the paper partitions
	// by the two least significant bits of the page frame number, i.e. 4.
	Queues int
	// BatchSize is the queue capacity that triggers a flush hypercall.
	BatchSize int
	// Unbatched, when true, bypasses the queue entirely and performs one
	// hypercall per operation (the strawman that divides wrmem's
	// performance by 3, §4.2.3).
	Unbatched bool
}

// DefaultQueueConfig returns the paper's configuration.
func DefaultQueueConfig() QueueConfig {
	return QueueConfig{Queues: 4, BatchSize: 64}
}

// PageQueue is the guest side of the external interface: it accumulates
// (op, page) pairs in partitioned, lock-protected queues and flushes each
// queue to the hypervisor when full, holding the lock across the
// hypercall so a free page in the queue cannot be reallocated mid-flush.
type PageQueue struct {
	cfg    QueueConfig
	dom    *xen.Domain
	queues [][]policy.PageOp

	// Counters.
	Ops     uint64
	Flushes uint64
	Time    sim.Time
}

// NewPageQueue builds the driver for dom.
func NewPageQueue(dom *xen.Domain, cfg QueueConfig) *PageQueue {
	if cfg.Queues < 1 || cfg.BatchSize < 1 {
		panic("guest: queue config must be positive")
	}
	q := &PageQueue{cfg: cfg, dom: dom}
	q.queues = make([][]policy.PageOp, cfg.Queues)
	for i := range q.queues {
		q.queues[i] = make([]policy.PageOp, 0, cfg.BatchSize)
	}
	return q
}

// queueOf partitions by the least significant bits of the PFN (§4.2.4).
func (q *PageQueue) queueOf(p mem.PFN) int {
	return int(uint64(p) % uint64(q.cfg.Queues))
}

// Add records one operation and returns the time spent (lock, append,
// and, when the queue fills, the flush hypercall performed under the
// lock).
func (q *PageQueue) Add(kind policy.PageOpKind, p mem.PFN) sim.Time {
	q.Ops++
	if q.cfg.Unbatched {
		cost := q.dom.HypercallPageQueue([]policy.PageOp{{Kind: kind, PFN: p}})
		q.Flushes++
		q.Time += cost
		return cost
	}
	qi := q.queueOf(p)
	q.queues[qi] = append(q.queues[qi], policy.PageOp{Kind: kind, PFN: p})
	cost := CostQueueAdd
	if len(q.queues[qi]) >= q.cfg.BatchSize {
		cost += q.flush(qi)
	}
	q.Time += cost
	return cost
}

// FlushAll drains every queue (used at policy-switch time and shutdown).
func (q *PageQueue) FlushAll() sim.Time {
	var total sim.Time
	for i := range q.queues {
		if len(q.queues[i]) > 0 {
			total += q.flush(i)
		}
	}
	q.Time += total
	return total
}

func (q *PageQueue) flush(qi int) sim.Time {
	ops := q.queues[qi]
	cost := q.dom.HypercallPageQueue(ops)
	q.queues[qi] = q.queues[qi][:0]
	q.Flushes++
	return cost
}

// Reset rebinds the driver to dom with empty queues and zeroed
// counters, keeping each queue's backing array. The configuration is
// unchanged; callers needing a different shape build a new queue.
func (q *PageQueue) Reset(dom *xen.Domain) {
	q.dom = dom
	for i := range q.queues {
		q.queues[i] = q.queues[i][:0]
	}
	q.Ops, q.Flushes, q.Time = 0, 0, 0
}

// Pending reports the total queued, unflushed operations.
func (q *PageQueue) Pending() int {
	n := 0
	for _, qq := range q.queues {
		n += len(qq)
	}
	return n
}

// OS ties the pieces together for one domain.
type OS struct {
	Dom   *xen.Domain
	Phys  *PhysAlloc
	Queue *PageQueue
	// queueActive is set while a page-queue-consuming policy (e.g.
	// first-touch) is selected: only then does the guest notify the
	// hypervisor of page traffic.
	queueActive bool
}

// NewOS boots a guest on dom with the given queue configuration,
// reserving kernelPages at the bottom of the physical space.
func NewOS(dom *xen.Domain, kernelPages uint64, qcfg QueueConfig) *OS {
	g := &OS{Phys: new(PhysAlloc), Queue: NewPageQueue(dom, qcfg)}
	g.reset(dom, kernelPages)
	return g
}

// reset boots the guest on a (possibly different) domain of the same
// queue shape, restoring the allocator and queue to pristine state while
// keeping their storage.
func (g *OS) reset(dom *xen.Domain, kernelPages uint64) {
	g.Dom = dom
	g.Phys.Reset(dom.PhysPages(), kernelPages)
	g.Queue.Reset(dom)
	g.queueActive = false
}

// SetPolicy performs the policy-selection hypercall. Switching to a
// page-queue-consuming policy (first-touch) additionally primes the
// hypervisor by flushing the whole guest free list through the page
// queue, so that every free page's hypervisor entry is invalidated and
// the next touch faults (§4.2.2).
func (g *OS) SetPolicy(cfg policy.Config) (sim.Time, error) {
	cost, err := g.Dom.HypercallSetPolicy(cfg)
	if err != nil {
		return cost, err
	}
	wasActive := g.queueActive
	g.queueActive = policy.UsesPageQueue(cfg.Static)
	if g.queueActive && !wasActive {
		g.Phys.ForEachFree(func(p mem.PFN) {
			cost += g.Queue.Add(policy.OpRelease, p)
		})
		cost += g.Queue.FlushAll()
	}
	return cost, nil
}

// QueueActive reports whether page traffic is being forwarded.
func (g *OS) QueueActive() bool { return g.queueActive }

// AllocPage allocates one physical page for a process, notifying the
// hypervisor when the queue is active. The returned time covers the
// guest fault path and any queue work.
func (g *OS) AllocPage() (mem.PFN, sim.Time, error) {
	p, err := g.Phys.Alloc()
	if err != nil {
		return 0, 0, err
	}
	cost := CostGuestFault
	if g.queueActive {
		cost += g.Queue.Add(policy.OpAlloc, p)
	}
	return p, cost, nil
}

// FreePage releases one physical page (zeroing it first, §4.4.2).
func (g *OS) FreePage(p mem.PFN) sim.Time {
	g.Phys.Free(p)
	cost := CostZeroPage
	if g.queueActive {
		cost += g.Queue.Add(policy.OpRelease, p)
	}
	return cost
}
