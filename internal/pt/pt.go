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
// faulting happens in the guest, not here).
type GuestTable struct {
	entries map[VPN]mem.PFN
}

// NewGuestTable returns an empty table.
func NewGuestTable() *GuestTable {
	return &GuestTable{entries: make(map[VPN]mem.PFN)}
}

// Lookup translates a virtual page; ok is false on a guest page fault.
func (g *GuestTable) Lookup(v VPN) (mem.PFN, bool) {
	p, ok := g.entries[v]
	return p, ok
}

// Map installs a translation. Mapping an already-present entry panics:
// the guest OS must unmap first (it indicates an allocator bug).
func (g *GuestTable) Map(v VPN, p mem.PFN) {
	if old, ok := g.entries[v]; ok {
		panic(fmt.Sprintf("pt: VPN %d already mapped to PFN %d", v, old))
	}
	g.entries[v] = p
}

// Unmap removes a translation and returns the physical page it pointed
// to. Unmapping an absent entry panics.
func (g *GuestTable) Unmap(v VPN) mem.PFN {
	p, ok := g.entries[v]
	if !ok {
		panic(fmt.Sprintf("pt: VPN %d not mapped", v))
	}
	delete(g.entries, v)
	return p
}

// Reset returns the table to its freshly constructed state. The entry
// storage is kept: clearing a Go map retains its buckets, so a recycled
// table refilled to a similar size allocates nothing — the point of
// reusing tables across warm-pool leases instead of rebuilding them.
func (g *GuestTable) Reset() {
	clear(g.entries)
}

// Len reports the number of present entries.
func (g *GuestTable) Len() int { return len(g.entries) }

// HypervisorEntry is one hypervisor page-table entry for a physical page.
type HypervisorEntry struct {
	MFN          mem.MFN
	Valid        bool
	WriteProtect bool
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
type HypervisorTable struct {
	entries map[mem.PFN]HypervisorEntry
	handler FaultHandler

	// Counters for the evaluation.
	Faults          uint64
	WriteProtFaults uint64
}

// NewHypervisorTable returns an empty table with no fault handler; every
// entry is invalid until mapped.
func NewHypervisorTable() *HypervisorTable {
	return &HypervisorTable{entries: make(map[mem.PFN]HypervisorEntry)}
}

// SetFaultHandler installs the fault resolution hook (the active NUMA
// policy registers itself here).
func (h *HypervisorTable) SetFaultHandler(fn FaultHandler) { h.handler = fn }

// Lookup returns the entry for pfn (zero entry when absent).
func (h *HypervisorTable) Lookup(pfn mem.PFN) HypervisorEntry {
	return h.entries[pfn]
}

// Map installs pfn→mfn, overwriting any previous entry. The entry becomes
// valid and writable.
func (h *HypervisorTable) Map(pfn mem.PFN, mfn mem.MFN) {
	h.entries[pfn] = HypervisorEntry{MFN: mfn, Valid: true}
}

// Invalidate clears the entry for pfn and returns the machine frame it
// held (NoMFN when it was already invalid). Subsequent accesses fault.
func (h *HypervisorTable) Invalidate(pfn mem.PFN) mem.MFN {
	e, ok := h.entries[pfn]
	if !ok || !e.Valid {
		return mem.NoMFN
	}
	delete(h.entries, pfn)
	return e.MFN
}

// WriteProtect marks pfn's entry read-only. It panics on invalid entries:
// migration must only target mapped pages.
func (h *HypervisorTable) WriteProtect(pfn mem.PFN) {
	e, ok := h.entries[pfn]
	if !ok || !e.Valid {
		panic(fmt.Sprintf("pt: write-protecting invalid PFN %d", pfn))
	}
	e.WriteProtect = true
	h.entries[pfn] = e
}

// Unprotect clears the write-protect bit.
func (h *HypervisorTable) Unprotect(pfn mem.PFN) {
	e, ok := h.entries[pfn]
	if !ok || !e.Valid {
		panic(fmt.Sprintf("pt: unprotecting invalid PFN %d", pfn))
	}
	e.WriteProtect = false
	h.entries[pfn] = e
}

// Translate resolves pfn for an access, delivering hypervisor page faults
// to the handler until the entry permits the access. It returns the
// backing machine frame.
func (h *HypervisorTable) Translate(pfn mem.PFN, write bool) mem.MFN {
	for attempt := 0; ; attempt++ {
		if attempt > 2 {
			panic(fmt.Sprintf("pt: fault handler did not resolve PFN %d", pfn))
		}
		e := h.entries[pfn]
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
	e := h.entries[pfn]
	if !e.Valid {
		return mem.NoMFN, false
	}
	return e.MFN, true
}

// Reset returns the table to its freshly constructed state — no
// entries, no fault handler, zeroed counters — keeping the entry
// storage (map buckets) so a recycled domain's table refills without
// rehashing.
func (h *HypervisorTable) Reset() {
	clear(h.entries)
	h.handler = nil
	h.Faults, h.WriteProtFaults = 0, 0
}

// Len reports the number of valid entries.
func (h *HypervisorTable) Len() int { return len(h.entries) }
