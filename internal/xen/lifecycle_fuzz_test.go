package xen

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
)

// slot is one entry of a domain's hypervisor table as the lifecycle
// model last observed it.
type slot struct {
	mfn   mem.MFN
	valid bool
}

// modelDomain is the naive model of one live domain's machine frames:
// block frames are recorded once at boot (round-1G regions) and stay
// with the domain until releaseFrames; page-grained frames follow the
// table — every mapping installed after boot owns its frame, and the
// frame is returned when the mapping goes away.
type modelDomain struct {
	d     *Domain
	block map[mem.MFN]bool
	owned map[mem.PFN]mem.MFN
	seen  []slot
	// quiet reports that no other domain allocated or freed a frame
	// since this domain was created, so releasing it must restore the
	// free memory exactly to what it was before its creation.
	quiet      bool
	freeBefore int64
}

// observe reconciles the model with the domain's table: a changed
// mapping returns the old frame (if page-grained) and owns the new one.
// It reports whether any mapping changed.
func (m *modelDomain) observe() bool {
	changed := false
	for pfn := range m.seen {
		e := m.d.Table().Lookup(mem.PFN(pfn))
		cur := slot{mfn: e.MFN, valid: e.Valid}
		if !cur.valid {
			cur.mfn = 0
		}
		prev := m.seen[pfn]
		if cur == prev {
			continue
		}
		changed = true
		if prev.valid && m.owned[mem.PFN(pfn)] == prev.mfn {
			delete(m.owned, mem.PFN(pfn))
		}
		if cur.valid {
			m.owned[mem.PFN(pfn)] = cur.mfn
		}
		m.seen[pfn] = cur
	}
	return changed
}

// adopt starts modelling a freshly created domain: a round-1G boot
// maps only blocks, every other boot maps pages individually.
func adopt(d *Domain, freeBefore int64) *modelDomain {
	m := &modelDomain{
		d:          d,
		block:      make(map[mem.MFN]bool),
		owned:      make(map[mem.PFN]mem.MFN),
		seen:       make([]slot, d.PhysPages()),
		quiet:      true,
		freeBefore: freeBefore,
	}
	if d.bootKind == policy.Round1G {
		for pfn := range m.seen {
			e := d.Table().Lookup(mem.PFN(pfn))
			m.block[e.MFN] = true
			m.seen[pfn] = slot{mfn: e.MFN, valid: true}
		}
		return m
	}
	m.observe()
	return m
}

func (m *modelDomain) frames() int { return len(m.block) + len(m.owned) }

// FuzzDomainLifecycle decodes a byte stream into domain creations
// (round-4K, round-1G and lazily booted interleave, plus pinned
// round-4K domains too big for the machine, whose populate failure
// runs releaseFrames), faults, migrations, invalidations — direct and
// through the first-touch page queue — explicit releaseFrames and
// Hypervisor.Reset, and checks the machine's frames against the naive
// model after every step:
//
//   - conservation: free frames + page-owned frames + block frames =
//     the machine's frames;
//   - no frame is owned twice, or owned while on a free list;
//   - a failed creation leaves free memory unchanged, and releasing a
//     domain returns exactly its frames (restoring the pre-create free
//     bytes when nothing else ran in between);
//   - after Reset, every node's free blocks and dom0's table equal a
//     fresh boot's.
//
// Each operation takes three bytes: selector, domain/argument, page.
func FuzzDomainLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 40, 2, 0, 3, 3, 0, 7, 4, 0, 9, 6, 0, 0})
	f.Add([]byte{0, 1, 90, 3, 0, 200, 4, 0, 17, 2, 0, 17, 6, 0, 0, 7, 0, 0})
	f.Add([]byte{0, 2, 10, 2, 0, 5, 2, 0x31, 6, 3, 0, 5, 4, 0, 5, 2, 0, 5, 7, 0, 0})
	f.Add([]byte{0, 0, 20, 5, 0, 0, 2, 0x21, 3, 3, 0, 3, 0, 1, 30, 5, 1, 100, 2, 1, 101, 6, 0, 0, 7, 0, 0})
	f.Add([]byte{0, 0, 5, 1, 0, 0, 0, 2, 5, 6, 1, 0})
	f.Add([]byte{0, 0, 5, 0, 2, 7, 7, 0, 0, 0, 0, 5, 0, 2, 7})

	topo := numa.SmallMachine(4, 4, 16<<20)
	cfg := Config{HugeOrder: 10, MidOrder: 3, IOMMU: true}
	boot := func() *Hypervisor {
		hv, err := New(topo, sim.NewEngine(), cfg, 4<<20)
		if err != nil {
			f.Fatal(err)
		}
		return hv
	}
	fresh := boot()
	totalFrames := int64(topo.NumNodes()) * int64(fresh.Alloc.FramesPerNode())
	boots := []policy.Kind{policy.Round4K, policy.Round1G, policy.Interleave}

	f.Fuzz(func(t *testing.T, data []byte) {
		hv := boot()
		live := []*modelDomain{adopt(hv.domains[0], 0)}
		oversized := false
		// owner[mfn] is the owning domain's ID plus one (0: unowned).
		owner := make([]DomID, totalFrames)

		check := func(step int) {
			t.Helper()
			clear(owner)
			frames := hv.Alloc.TotalFreeBytes() / mem.PageSize
			claim := func(m *modelDomain, mfn mem.MFN) {
				if o := owner[mfn]; o != 0 {
					t.Fatalf("step %d: MFN %d owned by domain %d and domain %d", step, mfn, o-1, m.d.ID)
				}
				owner[mfn] = m.d.ID + 1
			}
			for _, m := range live {
				frames += int64(m.frames())
				for mfn := range m.block {
					claim(m, mfn)
				}
				for _, mfn := range m.owned {
					claim(m, mfn)
				}
			}
			if frames != totalFrames {
				t.Fatalf("step %d: free + owned frames = %d, machine has %d", step, frames, totalFrames)
			}
			for n := 0; n < topo.NumNodes(); n++ {
				for _, b := range hv.Alloc.FreeBlocks(numa.NodeID(n)) {
					for mfn := b.Start; mfn < b.Start+mem.MFN(mem.FramesOf(b.Order)); mfn++ {
						if o := owner[mfn]; o != 0 {
							t.Fatalf("step %d: MFN %d owned by domain %d lies in free block %+v", step, mfn, o-1, b)
						}
					}
				}
			}
		}
		// touched marks every domain but m as disturbed when m's frames
		// changed.
		touched := func(m *modelDomain) {
			for _, o := range live {
				if o != m {
					o.quiet = false
				}
			}
		}

		for i := 0; i+2 < len(data) && i < 3*40; i += 3 {
			sel, arg, page := data[i], data[i+1], data[i+2]
			step := i / 3
			var m *modelDomain
			if len(live) > 1 {
				m = live[1+int(arg)%(len(live)-1)]
			}
			pfn := func() mem.PFN {
				return mem.PFN(int(page) * 13 % int(m.d.PhysPages()))
			}
			switch sel % 8 {
			case 0: // create
				if len(live) > 6 {
					continue
				}
				before := hv.Alloc.TotalFreeBytes()
				d, err := hv.CreateDomain(DomainSpec{
					Name:     "u",
					VCPUs:    1 + int(arg>>2)%4,
					MemBytes: int64(64+4*int(page)) * mem.PageSize,
					Boot:     boots[int(arg)%len(boots)],
				})
				if err != nil {
					if got := hv.Alloc.TotalFreeBytes(); got != before {
						t.Fatalf("step %d: failed create changed free bytes %d -> %d", step, before, got)
					}
					continue
				}
				nm := adopt(d, before)
				touched(nm)
				live = append(live, nm)
			case 1: // create a domain the machine cannot hold
				if oversized {
					continue
				}
				oversized = true
				before := hv.Alloc.TotalFreeBytes()
				_, err := hv.CreateDomain(DomainSpec{
					Name: "huge", VCPUs: 1, MemBytes: before + mem.PageSize,
					PinCPUs: []numa.CPUID{numa.CPUID(int(arg) % topo.NumCPUs())},
					Boot:    policy.Round4K,
				})
				if err == nil {
					t.Fatalf("step %d: domain larger than free memory was created", step)
				}
				if got := hv.Alloc.TotalFreeBytes(); got != before {
					t.Fatalf("step %d: releaseFrames after failed populate left %d free bytes, had %d", step, got, before)
				}
			case 2: // touch, faulting invalid entries into the policy
				if m == nil {
					continue
				}
				m.d.Touch(pfn(), numa.NodeID(int(arg>>4)%topo.NumNodes()), arg&0x08 != 0)
			case 3: // migrate
				if m == nil {
					continue
				}
				m.d.MigratePage(pfn(), numa.NodeID(int(arg>>4)%topo.NumNodes()))
			case 4: // invalidate one page directly
				if m == nil {
					continue
				}
				m.d.InvalidatePage(pfn())
			case 5: // switch to first-touch and release a run of pages
				if m == nil {
					continue
				}
				if _, err := m.d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
					t.Fatalf("step %d: switching to first-touch: %v", step, err)
				}
				ops := make([]policy.PageOp, 0, 16)
				for p := pfn(); p < mem.PFN(m.d.PhysPages()) && len(ops) < int(arg>>4)+1; p++ {
					ops = append(ops, policy.PageOp{PFN: p, Kind: policy.OpRelease})
				}
				m.d.HypercallPageQueue(ops)
			case 6: // releaseFrames
				if m == nil {
					continue
				}
				m.observe()
				before := hv.Alloc.TotalFreeBytes()
				m.d.releaseFrames()
				if got, want := hv.Alloc.TotalFreeBytes(), before+int64(m.frames())*mem.PageSize; got != want {
					t.Fatalf("step %d: releaseFrames freed to %d bytes, want %d", step, got, want)
				}
				if got := hv.Alloc.TotalFreeBytes(); m.quiet && got != m.freeBefore {
					t.Fatalf("step %d: releaseFrames left %d free bytes, %d before the domain was created", step, got, m.freeBefore)
				}
				touched(m)
				live = append(live[:1+int(arg)%(len(live)-1)], live[2+int(arg)%(len(live)-1):]...)
				m = nil
			case 7: // Reset
				if err := hv.Reset(); err != nil {
					t.Fatalf("step %d: Reset: %v", step, err)
				}
				live, m = []*modelDomain{adopt(hv.domains[0], 0)}, nil
				for n := 0; n < topo.NumNodes(); n++ {
					got, want := hv.Alloc.FreeBlocks(numa.NodeID(n)), fresh.Alloc.FreeBlocks(numa.NodeID(n))
					if !sameBlocks(got, want) {
						t.Fatalf("step %d: node %d free blocks after Reset differ from a fresh boot:\n got %v\nwant %v", step, n, got, want)
					}
				}
				d0, f0 := hv.domains[0], fresh.domains[0]
				if d0.PhysPages() != f0.PhysPages() {
					t.Fatalf("step %d: dom0 has %d pages after Reset, %d on a fresh boot", step, d0.PhysPages(), f0.PhysPages())
				}
				for pfn := mem.PFN(0); pfn < mem.PFN(f0.PhysPages()); pfn++ {
					if got, want := d0.Table().Lookup(pfn), f0.Table().Lookup(pfn); got != want {
						t.Fatalf("step %d: dom0 PFN %d maps %+v after Reset, %+v on a fresh boot", step, pfn, got, want)
					}
				}
			}
			if m != nil && m.observe() {
				touched(m)
			}
			check(step)
		}
	})
}

func sameBlocks(a, b []mem.FreeBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
