// Package trace provides a lightweight structured event ring used to
// observe the simulated stack: the events mirror the paper's mechanisms
// — the two hypercalls of the external interface (§4.2), page faults
// and migrations of the internal interface (§4.1), policy switches and
// Carrefour decisions (§4.3). Tracing is off unless a Ring is attached,
// and recording is allocation-free once the ring is built, so it can
// stay enabled in benchmarks.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Kind classifies events.
type Kind uint8

const (
	// KindHypercall is one guest→hypervisor call.
	KindHypercall Kind = iota
	// KindFault is a hypervisor page fault.
	KindFault
	// KindMigrate is one page migration.
	KindMigrate
	// KindPolicySwitch is a SetPolicy hypercall taking effect.
	KindPolicySwitch
	// KindCarrefour is one decision-loop interval.
	KindCarrefour
	// KindIO is a DMA-path event.
	KindIO
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindHypercall:
		return "hypercall"
	case KindFault:
		return "fault"
	case KindMigrate:
		return "migrate"
	case KindPolicySwitch:
		return "policy-switch"
	case KindCarrefour:
		return "carrefour"
	case KindIO:
		return "io"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence. Arg0/Arg1 are kind-specific (e.g.
// PFN and node for a migration).
type Event struct {
	// Time is the hypervisor clock (xen.Hypervisor.Eng) at the event.
	// The epoch engine keeps its own virtual time and does not advance
	// that clock, so events carry time 0 until a trace surface wires
	// the two together.
	Time sim.Time
	Kind Kind
	Dom  int
	Arg0 uint64
	Arg1 uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%v dom%d %s(%d,%d)", e.Time, e.Dom, e.Kind, e.Arg0, e.Arg1)
}

// Ring is a fixed-capacity circular event buffer. The zero value is
// unusable; build one with NewRing.
type Ring struct {
	events []Event
	next   int
	total  uint64
	counts [numKinds]uint64
}

// NewRing returns a ring keeping the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: ring capacity must be positive")
	}
	return &Ring{events: make([]Event, 0, capacity)}
}

// Record appends an event, overwriting the oldest when full. A nil ring
// is a no-op, so call sites need no guards.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.total++
	r.counts[e.Kind]++
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, e)
		return
	}
	r.events[r.next] = e
	r.next = (r.next + 1) % cap(r.events)
}

// Len reports the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Total reports all events ever recorded (including overwritten ones).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Count reports the events of one kind ever recorded.
func (r *Ring) Count(k Kind) uint64 {
	if r == nil {
		return 0
	}
	return r.counts[k]
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Filter returns the retained events of one kind, oldest-first.
func (r *Ring) Filter(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Summary renders per-kind totals.
func (r *Ring) Summary() string {
	if r == nil {
		return "trace: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events", r.total)
	for k := Kind(0); k < numKinds; k++ {
		if r.counts[k] > 0 {
			fmt.Fprintf(&b, ", %s=%d", k, r.counts[k])
		}
	}
	return b.String()
}
