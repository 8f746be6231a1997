// Package xennuma is the public facade of the reproduction of "An
// interface to implement NUMA policies in the Xen hypervisor" (Voron,
// Thomas, Quéma, Sens — EuroSys 2017).
//
// It wires the simulated AMD48 machine, the Xen-like hypervisor with the
// paper's two-hypercall NUMA-policy interface, the para-virtualized
// guest, the native-Linux baseline and the workload engine into a few
// high-level entry points:
//
//	res, err := xennuma.RunXen("cg.C", xennuma.MustPolicy("first-touch"), xennuma.Options{XenPlus: true})
//	base, _ := xennuma.RunXen("cg.C", xennuma.MustPolicy("round-1g"), xennuma.Options{XenPlus: true})
//	fmt.Printf("speedup: %.2fx\n", float64(base.Completion)/float64(res.Completion))
//
// Every run is deterministic for a given Options.Seed.
package xennuma

import (
	"fmt"
	"sync"

	"repro/internal/carrefour"
	"repro/internal/engine"
	"repro/internal/guest"
	"repro/internal/linux"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xen"
)

// Policy re-exports the policy configuration (static policy plus
// optional Carrefour).
type Policy = policy.Config

// Result re-exports the engine's per-run outcome.
type Result = engine.Result

// ParsePolicy parses any policy registered in internal/policy —
// "round-1g", "round-4k", "first-touch", "interleave", "bind:<node>",
// "least-loaded", "adaptive", … — optionally suffixed with "/carrefour"
// (e.g. "round-4k/carrefour") for policies Carrefour may stack on, with
// an optional heuristic variant ("/carrefour:migration",
// "/carrefour:replication", §7). Run `xnuma policies` for the full
// registry.
func ParsePolicy(s string) (Policy, error) { return policy.Parse(s) }

// carrefourMode maps a policy configuration's Carrefour variant to the
// engine's controller mode.
func carrefourMode(pol Policy) carrefour.Mode {
	switch pol.CarrefourVariant {
	case policy.CarrefourMigrationOnly:
		return carrefour.ModeMigrationOnly
	case policy.CarrefourReplicationOnly:
		return carrefour.ModeReplicationOnly
	default:
		return carrefour.ModeFull
	}
}

// MustPolicy is ParsePolicy that panics on error, for literals.
func MustPolicy(s string) Policy {
	cfg, err := ParsePolicy(s)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Options tunes a run. The zero value gives the paper's single-VM
// setting on a 1/64-scale AMD48 under stock Xen (no passthrough, no MCS
// locks).
type Options struct {
	// Scale divides node memory banks and application footprints
	// (power of two; default 64). Scale 1 is the full-size machine.
	Scale int
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// XenPlus enables the paper's improved baseline: IOMMU + PCI
	// passthrough for I/O and MCS spin locks for the pthread-blocking
	// applications (§5.3). Ignored by native runs.
	XenPlus bool
	// MCS forces the MCS-lock mitigation for pthread applications in
	// native runs (the paper's LinuxNUMA baseline uses it).
	MCS bool
	// TLB enables the address-translation cost model of the paper's §7
	// large-page extension; LargePages then maps the workload with
	// 2 MiB pages. Both default off (the paper's baseline).
	TLB        bool
	LargePages bool
	// Replication enables Carrefour's replication heuristic, which the
	// paper deliberately leaves out (§3.4); off by default.
	Replication bool
	// Pool, when non-nil, lends warm machines to Xen runs: the run
	// leases a pre-built machine of matching shape, resets it and
	// rebuilds only the seed/app/policy-dependent state, returning it on
	// completion. Results are bit-for-bit identical with or without a
	// pool. Sweeps attach one per suite. Left nil, every run cold-builds
	// its machine: the fresh-build reference path the pooled-vs-fresh
	// equivalence tests pin against.
	Pool *Pool
}

// topoCache shares one immutable AMD48 topology per scale: every sweep
// cell on the same scale then reuses one node/link graph and, further
// down, one engine cost model, instead of rebuilding them per run.
// Built topologies are never written after construction (the backends
// only read them), so sharing is safe across concurrent runs.
var topoCache sync.Map // int -> *numa.Topology

// scaledTopo returns the shared AMD48 topology for scale.
func scaledTopo(scale int) *numa.Topology {
	if t, ok := topoCache.Load(scale); ok {
		return t.(*numa.Topology)
	}
	t, _ := topoCache.LoadOrStore(scale, numa.AMD48Scaled(scale))
	return t.(*numa.Topology)
}

func (o Options) normalized() Options {
	if o.Scale == 0 {
		o.Scale = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunXen runs one application alone in one virtual machine spanning the
// whole machine (the paper's single-VM setting, §5.4.1) under the given
// NUMA policy, and returns its completion time and placement statistics.
func RunXen(app string, pol Policy, o Options) (Result, error) {
	res, err := runXen(o.normalized(), 1, xenVM{app: app, pol: pol})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// xenVM describes one VM of a Xen cell: its application, its policy and
// the CPUs its vCPUs are pinned to, one thread each (nil pins every CPU
// of the machine).
type xenVM struct {
	app  string
	pol  Policy
	pins []numa.CPUID
}

// runXen runs one Xen cell, the single-VM and pair settings alike: the
// VMs share one machine of shape (scale, IOMMU, len(vms)), each sized as
// one of memVMs VMs splitting its memory. Every app and policy is
// resolved before the machine is leased, so a bad input costs the pool
// nothing. The machine goes back to o.Pool only when the run completes:
// a machine whose run failed mid-build is dropped, its state neither
// pristine nor resettable by construction. o must be normalized.
func runXen(o Options, memVMs int, vms ...xenVM) ([]Result, error) {
	profs := make([]workload.Profile, len(vms))
	boots := make([]policy.Kind, len(vms))
	for i, vm := range vms {
		prof, err := workload.Get(vm.app)
		if err != nil {
			return nil, err
		}
		if err := policy.CheckConfig(vm.pol); err != nil {
			return nil, err
		}
		if boots[i], err = policy.BootKind(vm.pol.Static); err != nil {
			return nil, err
		}
		profs[i] = prof
	}
	key := poolKey{scale: o.Scale, xenplus: o.XenPlus, vms: len(vms)}
	m, err := acquire(o, key)
	if err != nil {
		return nil, err
	}
	insts := make([]*engine.Instance, len(vms))
	for i, vm := range vms {
		memBytes := vmMemBytes(m.hv.Topo, profs[i], o, memVMs)
		if insts[i], err = buildXenInstance(m, i, profs[i], vm.pol, boots[i], o, vm.pins, memBytes); err != nil {
			return nil, err
		}
	}
	res, err := engine.Run(engineConfig(o), insts...)
	if err != nil {
		return nil, err
	}
	if o.Pool != nil {
		o.Pool.release(key, m)
	}
	return res, nil
}

// engineConfig builds the run configuration from the options.
func engineConfig(o Options) engine.Config {
	cfg := engine.DefaultConfig(scaledTopo(o.Scale), o.Scale)
	cfg.Seed = o.Seed
	cfg.Carrefour.EnableReplication = o.Replication
	if o.TLB {
		tlb := numa.DefaultTLB()
		cfg.TLB = &tlb
	}
	return cfg
}

// fillInstance sets what an engine instance runs: the app on backend b
// with the given thread count and the options' page size, the policy's
// Carrefour stacking, and MCS locks when mcs is set and the app uses
// pthread synchronization.
func fillInstance(in *engine.Instance, prof workload.Profile, b engine.Backend, pol Policy, o Options, threads int, mcs bool) {
	in.Prof = prof
	in.Backend = b
	in.NThreads = threads
	in.Carrefour = pol.Carrefour
	in.CarrefourMode = carrefourMode(pol)
	in.MCS = mcs && prof.UsesPthreadSync
	in.LargePages = o.LargePages
}

// RunLinux runs one application natively under a Linux NUMA policy
// (first-touch or round-4K, optionally with Carrefour).
func RunLinux(app string, pol Policy, o Options) (Result, error) {
	o = o.normalized()
	prof, err := workload.Get(app)
	if err != nil {
		return Result{}, err
	}
	topo := scaledTopo(o.Scale)
	b, err := linux.New(topo, pol)
	if err != nil {
		return Result{}, err
	}
	inst := &engine.Instance{}
	fillInstance(inst, prof, b, pol, o, topo.NumCPUs(), o.MCS)
	res, err := engine.Run(engineConfig(o), inst)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// PairMode selects how two virtual machines share the machine.
type PairMode int

const (
	// Colocated gives each VM half the nodes and 24 vCPUs (Figure 8).
	Colocated PairMode = iota
	// Consolidated gives each VM all 48 vCPUs; every physical CPU runs
	// two vCPUs (Figure 9).
	Consolidated
)

// RunXenPair runs two applications in two virtual machines (the
// consolidated-workload settings of §5.4.2) and returns one result per
// VM. For the colocated mode the paper averages two runs with the node
// halves swapped; pass swap=true for the second run.
func RunXenPair(app1 string, pol1 Policy, app2 string, pol2 Policy, mode PairMode, swap bool, o Options) (Result, Result, error) {
	o = o.normalized()
	topo := scaledTopo(o.Scale)
	// Memory sizing counts VMs per memory partition: colocated VMs split
	// the machine (each sized as one of two), consolidated VMs each span
	// all of it (each sized as if alone), matching the paper's setups.
	memVMs := 1
	var pins1, pins2 []numa.CPUID
	switch mode {
	case Colocated:
		memVMs = 2
		half := topo.NumNodes() / 2
		for n, node := range topo.Nodes {
			for _, c := range node.CPUs {
				if n < half {
					pins1 = append(pins1, c)
				} else {
					pins2 = append(pins2, c)
				}
			}
		}
		if swap {
			pins1, pins2 = pins2, pins1
		}
	case Consolidated:
		for c := 0; c < topo.NumCPUs(); c++ {
			pins1 = append(pins1, numa.CPUID(c))
			pins2 = append(pins2, numa.CPUID(c))
		}
	default:
		return Result{}, Result{}, fmt.Errorf("xennuma: unknown pair mode %d", mode)
	}
	res, err := runXen(o, memVMs, xenVM{app1, pol1, pins1}, xenVM{app2, pol2, pins2})
	if err != nil {
		return Result{}, Result{}, err
	}
	return res[0], res[1], nil
}

func newHypervisor(topo *numa.Topology, o Options) (*xen.Hypervisor, error) {
	cfg := xen.ScaledConfig(o.Scale)
	cfg.IOMMU = o.XenPlus
	dom0Mem := int64(2<<30) / int64(o.Scale)
	if dom0Mem < 8<<20 {
		dom0Mem = 8 << 20
	}
	return xen.New(topo, sim.NewEngine(), cfg, dom0Mem)
}

// vmMemBytes sizes a VM: the scaled footprint plus headroom, clamped to
// what the machine can still give out.
func vmMemBytes(topo *numa.Topology, prof workload.Profile, o Options, vms int) int64 {
	foot := int64(prof.FootprintMB * (1 << 20) / float64(o.Scale))
	// Footprint with headroom, plus the guest kernel's low region (one
	// round-1G unit) and a matching tail.
	hugeBytes := int64(2<<30) / int64(o.Scale)
	memBytes := foot + foot/3 + hugeBytes
	limit := (topo.TotalMemory() - int64(2<<30)/int64(o.Scale)) / int64(vms)
	limit = limit * 9 / 10
	if memBytes > limit {
		memBytes = limit
	}
	return memBytes
}

// buildXenInstance creates the VM for one instance slot of m's machine,
// booted as boot, and (re)builds its guest backend and engine instance.
// On a warm lease the slot's previous backend and instance are recycled
// in place; the result is bit-for-bit identical to a cold build either
// way.
func buildXenInstance(m *machine, slot int, prof workload.Profile, pol Policy, boot policy.Kind, o Options, pins []numa.CPUID, memBytes int64) (*engine.Instance, error) {
	if len(pins) == 0 {
		for c := 0; c < m.hv.Topo.NumCPUs(); c++ {
			pins = append(pins, numa.CPUID(c))
		}
	}
	spec := xen.DomainSpec{
		Name:     prof.Name,
		VCPUs:    len(pins),
		MemBytes: memBytes,
		PinCPUs:  pins,
		Boot:     boot,
	}
	dom, err := m.hv.CreateDomain(spec)
	if err != nil {
		return nil, err
	}
	b, _, err := guest.RebuildBackend(m.backs[slot], m.hv, dom, guest.DefaultQueueConfig(), pol)
	if err != nil {
		return nil, err
	}
	m.backs[slot] = b
	in := m.insts[slot]
	if in == nil {
		in = &engine.Instance{}
		m.insts[slot] = in
	} else {
		in.Recycle()
	}
	fillInstance(in, prof, b, pol, o, len(pins), o.XenPlus)
	return in, nil
}

// Apps returns the 29 application names of the paper's evaluation.
func Apps() []string { return workload.Names() }
