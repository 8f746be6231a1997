package pt

import (
	"testing"

	"repro/internal/mem"
)

// modelEntry is the naive model's view of one valid hypervisor entry.
type modelEntry struct {
	mfn mem.MFN
	wp  bool
}

// FuzzHypervisorTable decodes a byte stream into map, invalidate,
// write-protect, unprotect, translate and reset operations and checks
// the table against a plain map from PFN to entry after every step:
// Lookup, TranslateNoFault, Len and the fault counters must agree with
// the model, and write-protecting or unprotecting an invalid entry must
// panic. Each operation takes two bytes: the first selects the
// operation (low three bits), the write flag (bit 3) and a far PFN
// (bit 7, to exercise sparse tables); the second is the PFN.
func FuzzHypervisorTable(f *testing.F) {
	// TestQuickMapInvalidate's shape: maps with every third op an
	// invalidation, over a small PFN range.
	quick := make([]byte, 0, 96)
	for i := 0; i < 48; i++ {
		op := byte(0)
		if i%3 == 0 {
			op = 1
		}
		quick = append(quick, op, byte(i*7%64))
	}
	f.Add(quick)
	f.Add([]byte{0, 3, 2, 3, 4, 3, 12, 3, 3, 3, 12, 3, 1, 3, 1, 3})
	f.Add([]byte{4, 9, 12, 9, 2, 9, 12, 9, 5, 0, 4, 9, 0x80, 200, 0x84, 17})
	f.Add([]byte{2, 1, 3, 1, 0, 1, 5, 0, 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		h := NewHypervisorTable()
		model := make(map[mem.PFN]modelEntry)
		var faults, wpFaults uint64
		handler := func(pfn mem.PFN, write bool, kind FaultKind) {
			switch kind {
			case FaultNotPresent:
				h.Map(pfn, mem.MFN(5000+pfn))
			case FaultWriteProtected:
				h.Unprotect(pfn)
			}
		}
		h.SetFaultHandler(handler)
		touched := make(map[mem.PFN]bool)
		panics := func(fn func()) (p bool) {
			defer func() { p = recover() != nil }()
			fn()
			return false
		}

		for i := 0; i+1 < len(data) && i < 256; i += 2 {
			sel, pfn := data[i], mem.PFN(data[i+1])
			if sel&0x80 != 0 {
				pfn += 1 << 12
			}
			write := sel&0x08 != 0
			touched[pfn] = true
			e, valid := model[pfn]
			switch sel & 0x07 {
			case 0, 6:
				mfn := mem.MFN(i + 1)
				h.Map(pfn, mfn)
				model[pfn] = modelEntry{mfn: mfn}
			case 1:
				want := mem.NoMFN
				if valid {
					want = e.mfn
				}
				if got := h.Invalidate(pfn); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %d, want %d", i/2, pfn, got, want)
				}
				delete(model, pfn)
			case 2, 3:
				protect := sel&0x07 == 2
				op := h.Unprotect
				if protect {
					op = h.WriteProtect
				}
				if p := panics(func() { op(pfn) }); p == valid {
					t.Fatalf("op %d: protect=%v on PFN %d (valid %v) panicked=%v", i/2, protect, pfn, valid, p)
				}
				if valid {
					e.wp = protect
					model[pfn] = e
				}
			case 4, 7:
				if !valid {
					faults++
					e = modelEntry{mfn: mem.MFN(5000 + pfn)}
				}
				if write && e.wp {
					wpFaults++
					e.wp = false
				}
				model[pfn] = e
				if got := h.Translate(pfn, write); got != e.mfn {
					t.Fatalf("op %d: Translate(%d, %v) = %d, want %d", i/2, pfn, write, got, e.mfn)
				}
			case 5:
				h.Reset()
				clear(model)
				faults, wpFaults = 0, 0
				if h.handler != nil {
					t.Fatalf("op %d: Reset kept the fault handler", i/2)
				}
				h.SetFaultHandler(handler)
			}

			for p := range touched {
				want, ok := model[p]
				got := h.Lookup(p)
				if got.Valid != ok || (ok && (got.MFN != want.mfn || got.WriteProtect != want.wp)) {
					t.Fatalf("op %d: Lookup(%d) = %+v, model %+v (present %v)", i/2, p, got, want, ok)
				}
				mfn, tok := h.TranslateNoFault(p)
				if tok != ok || (ok && mfn != want.mfn) {
					t.Fatalf("op %d: TranslateNoFault(%d) = %d,%v, model %d,%v", i/2, p, mfn, tok, want.mfn, ok)
				}
			}
			if h.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model holds %d", i/2, h.Len(), len(model))
			}
			if h.Faults != faults || h.WriteProtFaults != wpFaults {
				t.Fatalf("op %d: fault counters %d/%d, model %d/%d", i/2, h.Faults, h.WriteProtFaults, faults, wpFaults)
			}
		}
	})
}
