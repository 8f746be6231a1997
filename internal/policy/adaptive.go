package policy

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/numa"
)

// The adaptive policy is the in-hypervisor form of the paper's §3.5.2
// advisor rule. The paper derives the rule from a cheap profiling run —
// measure the placement behaviour, then commit to a policy — and closes
// by noting that automatic selection inside the hypervisor remains open
// (§7). This policy runs the probe inside the hypervisor itself: it
// starts placing like least-loaded (spreading by free memory, a safe
// default on an empty machine) while measuring the imbalance of its own
// placements, and once that imbalance is stable across consecutive
// fault windows it replaces itself with first-touch through the same
// HypercallSetPolicy entry point a guest would use, so the switch is
// observable (trace event, hypercall counters) like any external one.
// Natively there is no such hypercall, so the rule switches in place.

const (
	// adaptiveWindow is the number of resolved faults between imbalance
	// checks of the probe phase.
	adaptiveWindow = 256
	// adaptiveStableDelta is the largest change, in percentage points of
	// relative standard deviation, between two consecutive windows'
	// placement imbalance still considered "stable".
	adaptiveStableDelta = 10.0
	// adaptiveMinChecks is the number of windows the probe must observe
	// before it may declare stability (the first window has nothing to
	// compare against).
	adaptiveMinChecks = 2
)

// registerAdaptive is called from builtin.go's init so the adaptive
// policy registers after the paper's three static policies (their
// registration indices are the stable trace ids 0/1/2).
func registerAdaptive() {
	Register(Descriptor{
		Name:    "adaptive",
		Aliases: []string{"ad"},
		Abbrev:  "AD",
		Fault:   "probes least-loaded, switches itself to first-touch once imbalance stabilizes",
		// Carrefour may stack: the probe phase benefits from it exactly
		// like least-loaded does, and it survives the internal switch.
		Carrefour: true,
		// The first-touch phase consumes release notifications, so the
		// queue must be active from boot (and passthrough off, §4.4.1).
		UsesPageQueue: true,
		Place:         func(_ string, nodes int) (Placer, error) { return newAdaptive(nodes), nil },
	})
}

// adaptive places like least-loaded while it measures the imbalance of
// its own placements every window pages, and places like first-touch
// once two consecutive windows agree. Under Xen the fault path then
// switches the domain to first-touch (Policy.HandleFault); if the domain
// does not expose the switch hypercall, or rejects it, the rule keeps
// placing like first-touch in place.
type adaptive struct {
	window int

	// placed histograms the *current window's* placements only: the
	// stability test must compare windows against each other, not a
	// cumulative histogram (whose imbalance converges by construction
	// as 1/n even while per-window placement still swings). It is
	// presized to the machine's node count — windows must be compared
	// over histograms of the same length, or a window concentrated on
	// low node ids reads as balanced.
	placed   []float64
	faults   int
	checks   int
	prevImb  float64
	switched bool
}

// newAdaptive builds the rule for a machine with nodes nodes.
func newAdaptive(nodes int) *adaptive {
	return &adaptive{window: adaptiveWindow, placed: make([]float64, nodes)}
}

func (p *adaptive) PlaceNode(accessor numa.NodeID, homes []numa.NodeID, free FreeMem) numa.NodeID {
	if p.switched {
		return accessor
	}
	node := leastLoaded{}.PlaceNode(accessor, homes, free)
	p.placed[node]++
	p.faults++
	p.switched = p.stable()
	return node
}

// stable reports whether the probe phase just completed a window whose
// placement imbalance moved less than adaptiveStableDelta percentage
// points since the previous window's. Each window is measured on its
// own histogram.
func (p *adaptive) stable() bool {
	if p.faults%p.window != 0 {
		return false
	}
	imb := metrics.RelStdDev(p.placed)
	clear(p.placed)
	p.checks++
	ok := p.checks >= adaptiveMinChecks && math.Abs(imb-p.prevImb) <= adaptiveStableDelta
	p.prevImb = imb
	return ok
}

// switchToFirstTouch installs first-touch through the external
// interface, keeping the domain's Carrefour stacking. A rejected switch
// leaves the domain untouched (the hypercall's contract), and the
// adaptive rule keeps placing like first-touch in place.
func switchToFirstTouch(d DomainOps) {
	sw, ok := d.(PolicySwitcher)
	if !ok {
		return
	}
	cfg := sw.Policy()
	cfg.Static = FirstTouch
	_, _ = sw.HypercallSetPolicy(cfg)
}
