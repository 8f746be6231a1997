// Package pt models the two page-table layers the paper's mechanisms act
// on: the guest page table, owned by the guest operating system and
// mapping process-virtual pages to physical pages of the virtual machine,
// and the hypervisor page table (EPT/NPT), owned by the hypervisor and
// mapping physical pages to machine pages.
//
// The hypervisor table is the heart of the paper's internal interface
// (§4.1): a NUMA policy places a physical page on a node by choosing
// which machine frame backs it, and migrates a page by write-protecting
// the entry, copying, and remapping.
package pt

import (
	"fmt"

	"repro/internal/mem"
)

// VPN is a virtual page number within one process address space.
type VPN uint64

// GuestEntry is one guest page-table entry.
type GuestEntry struct {
	PFN     mem.PFN
	Present bool
}

// GuestTable maps the virtual pages of a single process to physical pages
// of its virtual machine. The guest OS populates it lazily (first-touch
// faulting happens in the guest, not here). Entries are indexed by VPN:
// an address space grows up from VPN 0, so the table is dense.
type GuestTable struct {
	entries []GuestEntry
	present int
}

// NewGuestTable returns an empty table.
func NewGuestTable() *GuestTable { return &GuestTable{} }

// Lookup translates a virtual page; ok is false on a guest page fault.
func (g *GuestTable) Lookup(v VPN) (mem.PFN, bool) {
	if uint64(v) >= uint64(len(g.entries)) {
		return 0, false
	}
	e := g.entries[v]
	return e.PFN, e.Present
}

// Map installs a translation. Mapping an already-present entry panics:
// the guest OS must unmap first (it indicates an allocator bug).
func (g *GuestTable) Map(v VPN, p mem.PFN) {
	if old, ok := g.Lookup(v); ok {
		panic(fmt.Sprintf("pt: VPN %d already mapped to PFN %d", v, old))
	}
	g.entries = extend(g.entries, uint64(v))
	g.entries[v] = GuestEntry{PFN: p, Present: true}
	g.present++
}

// Unmap removes a translation and returns the physical page it pointed
// to. Unmapping an absent entry panics.
func (g *GuestTable) Unmap(v VPN) mem.PFN {
	p, ok := g.Lookup(v)
	if !ok {
		panic(fmt.Sprintf("pt: VPN %d not mapped", v))
	}
	g.entries[v] = GuestEntry{}
	g.present--
	return p
}

// Reset returns the table to its freshly constructed state, keeping the
// entry storage for the next lease's refill.
func (g *GuestTable) Reset() {
	g.entries = g.entries[:0]
	g.present = 0
}

// Len reports the number of present entries.
func (g *GuestTable) Len() int { return g.present }

// extend grows s with zero entries until index i is in range. Growth
// appends, so a table filled in index order doubles its storage like any
// slice, and a truncated table reuses its storage zeroed.
func extend[E any](s []E, i uint64) []E {
	if i < uint64(len(s)) {
		return s
	}
	return append(s, make([]E, i+1-uint64(len(s)))...)
}

// HypervisorEntry is one hypervisor page-table entry for a physical page.
type HypervisorEntry struct {
	MFN          mem.MFN
	Valid        bool
	WriteProtect bool
	// Owned is a software bit, like a spare bit of a Xen p2m entry: MFN
	// was allocated for this page alone and is freed with the mapping.
	Owned bool
}

// FaultKind distinguishes hypervisor page faults.
type FaultKind int

const (
	// FaultNotPresent fires on any access to an invalid entry — the hook
	// the first-touch policy uses to place the page (§4.2.2).
	FaultNotPresent FaultKind = iota
	// FaultWriteProtected fires on a write to a write-protected entry —
	// the hook the migration mechanism uses to quiesce writers (§4.1).
	FaultWriteProtected
)

func (k FaultKind) String() string {
	switch k {
	case FaultNotPresent:
		return "not-present"
	case FaultWriteProtected:
		return "write-protected"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultHandler resolves a hypervisor page fault. It must leave the entry
// in a state that allows the access to proceed (valid, and writable if
// write is true) or the simulated access panics.
type FaultHandler func(pfn mem.PFN, write bool, kind FaultKind)

// HypervisorTable maps one domain's physical pages to machine frames.
// Entries are indexed by PFN, as Xen keeps its p2m; an entry past the
// end of the slice reads as invalid.
type HypervisorTable struct {
	entries []HypervisorEntry
	handler FaultHandler

	// Counters for the evaluation.
	Faults          uint64
	WriteProtFaults uint64
}

// NewHypervisorTable returns an empty table with no fault handler; every
// entry is invalid until mapped.
func NewHypervisorTable() *HypervisorTable { return &HypervisorTable{} }

// Size extends the table with invalid entries to cover PFNs [0, pages),
// in one step: a domain sizes its table to its physical memory when it
// is created, so the faults that fill it never reallocate it. A table
// that is already that long is left as it is.
func (h *HypervisorTable) Size(pages uint64) {
	if uint64(cap(h.entries)) < pages {
		h.entries = append(make([]HypervisorEntry, 0, pages), h.entries...)
	}
	if pages > 0 {
		h.entries = extend(h.entries, pages-1)
	}
}

// SetFaultHandler installs the fault resolution hook (the active NUMA
// policy registers itself here).
func (h *HypervisorTable) SetFaultHandler(fn FaultHandler) { h.handler = fn }

// Lookup returns the entry for pfn (zero entry when invalid).
func (h *HypervisorTable) Lookup(pfn mem.PFN) HypervisorEntry {
	if uint64(pfn) >= uint64(len(h.entries)) {
		return HypervisorEntry{}
	}
	return h.entries[pfn]
}

// Map installs pfn→mfn, overwriting any previous entry. The entry becomes
// valid and writable, with the ownership bit clear.
func (h *HypervisorTable) Map(pfn mem.PFN, mfn mem.MFN) {
	h.entries = extend(h.entries, uint64(pfn))
	h.entries[pfn] = HypervisorEntry{MFN: mfn, Valid: true}
}

// MapOwned is Map with the ownership bit set.
func (h *HypervisorTable) MapOwned(pfn mem.PFN, mfn mem.MFN) {
	h.entries = extend(h.entries, uint64(pfn))
	h.entries[pfn] = HypervisorEntry{MFN: mfn, Valid: true, Owned: true}
}

// Invalidate clears the entry for pfn and returns the machine frame it
// held (NoMFN when it was already invalid). Subsequent accesses fault.
func (h *HypervisorTable) Invalidate(pfn mem.PFN) mem.MFN {
	e := h.Lookup(pfn)
	if !e.Valid {
		return mem.NoMFN
	}
	h.entries[pfn] = HypervisorEntry{}
	return e.MFN
}

// WriteProtect marks pfn's entry read-only. It panics on invalid entries:
// migration must only target mapped pages.
func (h *HypervisorTable) WriteProtect(pfn mem.PFN) {
	if !h.Lookup(pfn).Valid {
		panic(fmt.Sprintf("pt: write-protecting invalid PFN %d", pfn))
	}
	h.entries[pfn].WriteProtect = true
}

// Unprotect clears the write-protect bit.
func (h *HypervisorTable) Unprotect(pfn mem.PFN) {
	if !h.Lookup(pfn).Valid {
		panic(fmt.Sprintf("pt: unprotecting invalid PFN %d", pfn))
	}
	h.entries[pfn].WriteProtect = false
}

// Translate resolves pfn for an access, delivering hypervisor page faults
// to the handler until the entry permits the access. It returns the
// backing machine frame.
func (h *HypervisorTable) Translate(pfn mem.PFN, write bool) mem.MFN {
	for attempt := 0; ; attempt++ {
		if attempt > 2 {
			panic(fmt.Sprintf("pt: fault handler did not resolve PFN %d", pfn))
		}
		e := h.Lookup(pfn)
		if !e.Valid {
			h.Faults++
			if h.handler == nil {
				panic(fmt.Sprintf("pt: fault on PFN %d with no handler", pfn))
			}
			h.handler(pfn, write, FaultNotPresent)
			continue
		}
		if write && e.WriteProtect {
			h.WriteProtFaults++
			if h.handler == nil {
				panic(fmt.Sprintf("pt: write-protect fault on PFN %d with no handler", pfn))
			}
			h.handler(pfn, write, FaultWriteProtected)
			continue
		}
		return e.MFN
	}
}

// TranslateNoFault resolves pfn without delivering faults, as the IOMMU
// does: devices cannot wait for software fault resolution (§4.4.1).
// ok is false on an invalid entry, which aborts the DMA.
func (h *HypervisorTable) TranslateNoFault(pfn mem.PFN) (mem.MFN, bool) {
	e := h.Lookup(pfn)
	if !e.Valid {
		return mem.NoMFN, false
	}
	return e.MFN, true
}

// Reset returns the table to its freshly constructed state — no
// entries, no fault handler, zeroed counters — keeping the entry
// storage for the next lease's refill.
func (h *HypervisorTable) Reset() {
	h.entries = h.entries[:0]
	h.handler = nil
	h.Faults, h.WriteProtFaults = 0, 0
}

// Len reports the number of valid entries.
func (h *HypervisorTable) Len() int {
	n := 0
	for _, e := range h.entries {
		if e.Valid {
			n++
		}
	}
	return n
}
