package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func installPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(p)
	t.Cleanup(func() { faultinject.Install(nil) })
	return p
}

// expectPanic runs f and returns the recovered panic message, failing
// the test if f returns normally.
func expectPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("call did not panic")
		}
		msg = p.(string)
	}()
	f()
	return
}

// TestErroredCellEvictedAndRetryable pins the suite's poison-pill fix:
// a cell whose execution fails (error or recovered panic) is counted in
// CellErrors and evicted from the cache, so the next read of the same
// key recomputes and succeeds instead of replaying the failure forever.
func TestErroredCellEvictedAndRetryable(t *testing.T) {
	const app, pol = "swaptions", "first-touch"
	ref := NewSuite(256)
	want := ref.Xen(app, pol, true)

	for _, tc := range []struct{ name, spec, frag string }{
		{"error", "exp.cell:hit=1:action=error", "exp.cell"},
		{"panic", "exp.cell:hit=1:action=panic", "panic:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSuite(256)
			plan := installPlan(t, tc.spec)
			msg := expectPanic(t, func() { s.Xen(app, pol, true) })
			if !strings.Contains(msg, tc.frag) {
				t.Fatalf("panic %q does not mention %q", msg, tc.frag)
			}
			if s.CellErrors() != 1 {
				t.Fatalf("CellErrors = %d, want 1", s.CellErrors())
			}
			if n := len(s.cache.keys()); n != 0 {
				t.Fatalf("errored cell retained: %d cache keys", n)
			}
			if plan.Fired("exp.cell") != 1 {
				t.Fatalf("site fired %d times, want 1", plan.Fired("exp.cell"))
			}
			// The fault is exhausted: the retry recomputes the same key
			// and matches the fault-free reference bit for bit.
			if got := s.Xen(app, pol, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("retry diverged: %+v != %+v", got, want)
			}
			if s.CellsComputed() != 2 || s.CellErrors() != 1 {
				t.Fatalf("computed/errors = %d/%d, want 2/1",
					s.CellsComputed(), s.CellErrors())
			}
		})
	}
}

// TestPrefetchedErrorDoesNotPoison: a prefetched cell that fails is
// evicted by the worker, so the serial accessor that follows the Join
// recomputes it inline and succeeds.
func TestPrefetchedErrorDoesNotPoison(t *testing.T) {
	const app, pol = "swaptions", "first-touch"
	ref := NewSuite(256)
	want := ref.Xen(app, pol, true)

	s := NewSuiteParallel(256, 2)
	installPlan(t, "exp.cell:hit=1:action=error")
	s.PrefetchXen(app, pol, true)
	s.Join()
	if s.CellErrors() != 1 {
		t.Fatalf("CellErrors after failed prefetch = %d, want 1", s.CellErrors())
	}
	if got := s.Xen(app, pol, true); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-prefetch retry diverged: %+v != %+v", got, want)
	}
}
