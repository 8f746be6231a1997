package pt

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestGuestTableMapUnmap(t *testing.T) {
	g := NewGuestTable()
	g.Map(5, 100)
	if p, ok := g.Lookup(5); !ok || p != 100 {
		t.Fatalf("Lookup(5) = %d,%v", p, ok)
	}
	if _, ok := g.Lookup(6); ok {
		t.Fatal("Lookup(6) found an unmapped entry")
	}
	if got := g.Unmap(5); got != 100 {
		t.Fatalf("Unmap returned %d", got)
	}
	if g.Len() != 0 {
		t.Fatal("table not empty after unmap")
	}
}

func TestGuestTableDoubleMapPanics(t *testing.T) {
	g := NewGuestTable()
	g.Map(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double map did not panic")
		}
	}()
	g.Map(1, 11)
}

func TestGuestTableUnmapAbsentPanics(t *testing.T) {
	g := NewGuestTable()
	defer func() {
		if recover() == nil {
			t.Fatal("unmapping absent entry did not panic")
		}
	}()
	g.Unmap(9)
}

func TestHypervisorTableFaultResolution(t *testing.T) {
	h := NewHypervisorTable()
	faults := 0
	h.SetFaultHandler(func(pfn mem.PFN, write bool, kind FaultKind) {
		faults++
		if kind != FaultNotPresent {
			t.Fatalf("unexpected fault kind %v", kind)
		}
		h.Map(pfn, mem.MFN(1000+pfn))
	})
	mfn := h.Translate(7, false)
	if mfn != 1007 {
		t.Fatalf("Translate = %d", mfn)
	}
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	// Second access hits the fast path.
	h.Translate(7, false)
	if faults != 1 {
		t.Fatalf("fast path faulted: %d", faults)
	}
}

func TestHypervisorTableWriteProtect(t *testing.T) {
	h := NewHypervisorTable()
	h.Map(3, 300)
	h.WriteProtect(3)
	// Reads pass through.
	if got := h.Translate(3, false); got != 300 {
		t.Fatalf("read through WP entry = %d", got)
	}
	// Writes fault until unprotected.
	wpFaults := 0
	h.SetFaultHandler(func(pfn mem.PFN, write bool, kind FaultKind) {
		if kind != FaultWriteProtected || !write {
			t.Fatalf("unexpected fault %v write=%v", kind, write)
		}
		wpFaults++
		h.Unprotect(pfn)
	})
	if got := h.Translate(3, true); got != 300 {
		t.Fatalf("write after WP fault = %d", got)
	}
	if wpFaults != 1 {
		t.Fatalf("wpFaults = %d", wpFaults)
	}
	if h.WriteProtFaults != 1 {
		t.Fatalf("counter = %d", h.WriteProtFaults)
	}
}

func TestHypervisorTableInvalidate(t *testing.T) {
	h := NewHypervisorTable()
	h.Map(1, 11)
	if got := h.Invalidate(1); got != 11 {
		t.Fatalf("Invalidate returned %d", got)
	}
	if got := h.Invalidate(1); got != mem.NoMFN {
		t.Fatalf("second Invalidate returned %d, want NoMFN", got)
	}
	if _, ok := h.TranslateNoFault(1); ok {
		t.Fatal("invalidated entry still translates")
	}
}

func TestTranslateNoFaultNeverCallsHandler(t *testing.T) {
	h := NewHypervisorTable()
	h.SetFaultHandler(func(mem.PFN, bool, FaultKind) {
		t.Fatal("IOMMU-style translation must not fault into software (§4.4.1)")
	})
	if _, ok := h.TranslateNoFault(42); ok {
		t.Fatal("invalid entry translated")
	}
	h.Map(42, 420)
	mfn, ok := h.TranslateNoFault(42)
	if !ok || mfn != 420 {
		t.Fatalf("TranslateNoFault = %d,%v", mfn, ok)
	}
}

func TestUnresolvedFaultPanics(t *testing.T) {
	h := NewHypervisorTable()
	h.SetFaultHandler(func(mem.PFN, bool, FaultKind) {}) // never resolves
	defer func() {
		if recover() == nil {
			t.Fatal("unresolved fault did not panic")
		}
	}()
	h.Translate(1, false)
}

func TestWriteProtectInvalidPanics(t *testing.T) {
	h := NewHypervisorTable()
	defer func() {
		if recover() == nil {
			t.Fatal("write-protecting invalid entry did not panic")
		}
	}()
	h.WriteProtect(1)
}

// TestQuickMapInvalidate property-tests that map/invalidate keeps the
// table consistent: an entry translates iff it was mapped after its last
// invalidation.
func TestQuickMapInvalidate(t *testing.T) {
	check := func(ops []uint16) bool {
		h := NewHypervisorTable()
		expect := make(map[mem.PFN]mem.MFN)
		for i, op := range ops {
			pfn := mem.PFN(op % 64)
			if op%3 == 0 {
				h.Invalidate(pfn)
				delete(expect, pfn)
			} else {
				mfn := mem.MFN(i)
				h.Map(pfn, mfn)
				expect[pfn] = mfn
			}
		}
		for pfn, want := range expect {
			got, ok := h.TranslateNoFault(pfn)
			if !ok || got != want {
				return false
			}
		}
		return h.Len() == len(expect)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultNotPresent.String() != "not-present" || FaultWriteProtected.String() != "write-protected" {
		t.Fatal("FaultKind strings wrong")
	}
}

// TestHypervisorTableSize pins Size: the sized entries read invalid,
// mapping inside the sized range never reallocates, and a reset table
// sized again, smaller, comes back with every entry invalid.
func TestHypervisorTableSize(t *testing.T) {
	h := NewHypervisorTable()
	h.Size(64)
	if h.Len() != 0 || h.Lookup(63).Valid {
		t.Fatal("sized entries are not invalid")
	}
	pfn := mem.PFN(0)
	if allocs := testing.AllocsPerRun(10, func() {
		h.MapOwned(pfn, mem.MFN(100+pfn))
		pfn++
	}); allocs != 0 {
		t.Fatalf("mapping inside the sized range allocated %v times", allocs)
	}
	h.Reset()
	h.Size(8)
	for p := mem.PFN(0); p < 64; p++ {
		if h.Lookup(p).Valid {
			t.Fatalf("PFN %d valid after reset and resize", p)
		}
	}
	h.Map(100, 7) // mapping past the sized range still extends the table
	if e := h.Lookup(100); !e.Valid || e.MFN != 7 {
		t.Fatalf("entry past the sized range = %+v", e)
	}
}
