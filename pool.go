package xennuma

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/xen"
)

// fiPoolReset is the fault site at the warm lease's reset step: an
// injected fault (error or panic) exercises the pool's degradation
// path — drop the machine, count it, cold-build — without a real
// failure.
var fiPoolReset = faultinject.Register("pool.reset")

// poolKey is the shape of a machine a cell can lease: the scaled
// topology, the hypervisor configuration that varies per run (IOMMU)
// and the VM count. The VMs' memory sizes are not part of it. A reset
// machine hosts a VM of any size and keeps the storage it grew for the
// largest VM it has hosted (the hypervisor table of each domain slot,
// the guest frame tables, the engine's region page lists), so a smaller
// VM reuses that storage and a larger one grows it once. So every app
// of a sweep shares one machine shape: 97% of `xnuma all`'s Xen leases
// find a warm machine. The key is purely a performance choice: reset
// machines are pristine, so any lease is correct.
type poolKey struct {
	scale   int
	xenplus bool
	vms     int
}

// machine is one poolable world: a hypervisor plus the per-VM guest
// backends and engine instances of its previous lease, kept so the next
// lease of the same shape rebuilds them in place.
type machine struct {
	hv    *xen.Hypervisor
	backs [2]*guest.Backend
	insts [2]*engine.Instance
}

// Pool is a deterministic warm-machine pool: Xen runs with Options.Pool
// set lease a pre-built machine of matching shape instead of
// cold-building one, reset it to its just-booted state, and return it
// when the run completes. Leases are exclusive, so a pool is safe at
// any worker count; results are bit-for-bit identical with or without
// one (pinned by TestPooledCellsMatchFreshSuites). Sweeps attach one
// pool per suite.
type Pool struct {
	mu     sync.Mutex
	free   map[poolKey][]*machine
	hits   uint64
	misses uint64
	drops  uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{free: make(map[poolKey][]*machine)} }

// Stats reports how many leases found a warm machine (hits) and how
// many had to cold-build one (misses). A lease whose reset failed
// counts as a miss (the run cold-built after all) plus a ResetDrops.
func (p *Pool) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// ResetDrops reports how many leased machines were dropped because
// their reset failed or panicked — the pool's degraded-mode counter:
// each drop is one warm lease that fell back to a cold build instead
// of killing the process.
func (p *Pool) ResetDrops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}

// count bumps one of the pool's counters under its lock.
func (p *Pool) count(c *uint64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}

// lease pops a free machine of the given shape, or returns nil when the
// caller must cold-build one. Counters are the caller's job: a popped
// machine only becomes a hit once its reset succeeds.
func (p *Pool) lease(key poolKey) *machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free[key]
	if n := len(l); n > 0 {
		m := l[n-1]
		l[n-1] = nil
		p.free[key] = l[:n-1]
		return m
	}
	return nil
}

// release returns a machine to the free list after a completed run.
func (p *Pool) release(key poolKey, m *machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free[key] = append(p.free[key], m)
}

// acquire produces the run's machine: a reset warm one when the pool
// has a matching shape, a cold-built one otherwise. A leased machine
// whose reset fails — an error or a panic anywhere in the reset
// protocol, or an injected fault — is dropped (counted in ResetDrops)
// and the run degrades to a cold build; the failure never reaches the
// caller, and results stay bit-identical because a cold-built machine
// is the reference the reset protocol reproduces.
func acquire(o Options, key poolKey) (*machine, error) {
	p := o.Pool
	if p != nil {
		if m := p.lease(key); m != nil {
			if err := resetMachine(m); err == nil {
				p.count(&p.hits)
				return m, nil
			}
			p.count(&p.drops)
		}
	}
	hv, err := newHypervisor(scaledTopo(o.Scale), o)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.count(&p.misses)
	}
	return &machine{hv: hv}, nil
}

// resetMachine returns a leased machine to its just-booted state,
// degrading panics from the reset protocol into errors so a corrupt
// machine costs the pool one drop, never the process.
func resetMachine(m *machine) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("pool: reset panicked: %v", p)
		}
	}()
	if err := fiPoolReset.Fire(); err != nil {
		return err
	}
	return m.hv.Reset()
}
