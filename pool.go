package xennuma

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/workload"
	"repro/internal/xen"
)

// fiPoolReset is the fault site at the warm lease's reset step: an
// injected fault (error or panic) exercises the pool's degradation
// path — drop the machine, count it, cold-build — without a real
// failure.
var fiPoolReset = faultinject.Register("pool.reset")

// poolKey is the run-constant shape of a machine: everything that
// determines the sizes of the allocations a cell builds — the scaled
// topology, the hypervisor configuration that varies per run (IOMMU),
// the VM count and each VM's memory size. Cells of the same shape reuse
// each other's machines; the key is purely a performance choice (reset
// machines are pristine, so a collision would still be correct — the
// recycled buckets would just be the wrong size).
type poolKey struct {
	scale   int
	xenplus bool
	vms     int
	mem0    int64
	mem1    int64
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

// releaseMachine hands the machine back to the pool, if any. Machines
// of runs that failed mid-build are dropped instead: their state is
// neither pristine nor resettable-by-construction.
func releaseMachine(o Options, key poolKey, m *machine) {
	if p := o.Pool; p != nil {
		p.release(key, m)
	}
}

// runShape is the cached per-cell constant state derived from
// (scale, app, vms): the workload profile and the VM memory size.
// Sweeps rebuild the same handful of shapes thousands of times, so —
// like topoCache one level down — the derivation runs once per shape
// instead of once per cell.
type runShape struct {
	prof     workload.Profile
	memBytes int64
}

type shapeKey struct {
	scale int
	app   string
	vms   int
}

var shapeCache sync.Map // shapeKey -> runShape

// cellShape returns the cached profile and VM memory size for one cell.
// o must be normalized.
func cellShape(o Options, app string, vms int) (runShape, error) {
	key := shapeKey{scale: o.Scale, app: app, vms: vms}
	if s, ok := shapeCache.Load(key); ok {
		return s.(runShape), nil
	}
	prof, err := workload.Get(app)
	if err != nil {
		return runShape{}, err
	}
	shape := runShape{prof: prof, memBytes: vmMemBytes(scaledTopo(o.Scale), prof, o, vms)}
	s, _ := shapeCache.LoadOrStore(key, shape)
	return s.(runShape), nil
}
