package engine

import (
	"fmt"

	"repro/internal/numa"
	"repro/internal/sim"
)

// The reference kernel: the epoch computed the plain way, for the
// equivalence tests to pin the production kernel against. It shares
// the production passes that have no faster variant (traffic emission,
// the per-group latency reduction, progress, statistics, Carrefour
// ticks) and replaces every shortcut the production kernel takes:
//
//   - the cost matrix is filled per (src, dst) pair with a direct
//     AccessCycles call, its link term the maximum of LinkUtil over
//     RouteLinks, instead of from the shared cost model and one link
//     snapshot per iteration;
//   - every epoch folds the stream table afresh (foldValid cleared), so
//     the fold skip never fires;
//   - rows live in private per-instance buffers, not the runner arena;
//   - no converged-epoch fast path.

// runReference is Run through the reference kernel.
func runReference(cfg Config, insts ...*Instance) ([]Result, error) {
	if cfg.Epoch <= 0 || cfg.Scale <= 0 || len(insts) == 0 {
		return nil, fmt.Errorf("engine: invalid config or no instances")
	}
	r := &runner{cfg: cfg, insts: insts, rand: sim.NewRand(cfg.Seed)}
	if err := r.setup(); err != nil {
		return nil, err
	}
	// Detach the rows from the arena: foldRows then allocates each
	// instance a private buffer.
	r.rowArena = nil
	for _, in := range insts {
		in.rows = nil
	}
	loopWith(r, r.referenceEpoch)
	return r.results()
}

// loopWith drives r through epochs like runner.loop, computing each one
// with epoch.
func loopWith(r *runner, epoch func(step int)) {
	maxEpochs := int(r.cfg.MaxTime / r.cfg.Epoch)
	for step := 0; step < maxEpochs; step++ {
		r.now = sim.Time(step) * r.cfg.Epoch
		if r.allDone() {
			return
		}
		epoch(step)
	}
	for _, in := range r.insts {
		if !in.done {
			in.done = true
			in.Completion = r.cfg.MaxTime
			for _, t := range in.Threads {
				if !t.Done {
					t.Done = true
					t.DoneAt = r.cfg.MaxTime
				}
			}
		}
	}
}

// referenceEpoch is runner.epoch's full computation with the reference
// fill and a forced fold.
func (r *runner) referenceEpoch(step int) {
	for _, in := range r.insts {
		if !in.done {
			in.foldValid = false
			in.refreshStreams()
		}
	}
	const iters = 4
	for iter := 0; iter < iters; iter++ {
		r.fillLoads(iter == iters-1)
		r.fillCyclesReference()
		r.updateLatencies()
	}
	r.progress()
	for i := range r.insts {
		r.stats[i].Observe(r.instLoads[i])
	}
	r.runTicks(step)
}

// fillCyclesReference fills the cost matrix pair by pair: the hop count
// from Topo.Distance, the destination's controller utilization and the
// busiest link on the route go straight into AccessCycles.
func (r *runner) fillCyclesReference() {
	topo := r.cfg.Topo
	r.load.FillCtrlUtil(r.ctrlUtil)
	nn := r.nNodes
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			s, d := numa.NodeID(src), numa.NodeID(dst)
			var link float64
			for _, li := range topo.RouteLinks(s, d) {
				if u := r.load.LinkUtil(li); u > link {
					link = u
				}
			}
			r.cycles[src*nn+dst] = topo.Latency.AccessCycles(topo.Distance(s, d), r.ctrlUtil[dst], link)
		}
	}
}
