package mem

import (
	"bytes"
	"testing"

	"repro/internal/numa"
)

// fuzzTopo is the machine FuzzAllocator drives. Each node's bank is
// 1 GiB + 2 MiB + 4 KiB, so node 0 seeds one block of each of the three
// Xen orders while node 1's bank starts at an odd frame: its seeded
// blocks climb through every order up from 0 and no 1 GiB block fits.
func fuzzTopo() *numa.Topology {
	return numa.SmallMachine(2, 1, 1<<30+2<<20+PageSize)
}

// fuzzOrders are the orders FuzzAllocator allocates and frees at,
// indexed by two bits of an op byte, so 4 KiB takes two of the slots.
var fuzzOrders = [...]int{Order4K, Order2M, Order1G, Order4K}

// allocModel is the naive model of an Allocator: which frames of each
// node's bank are allocated, one byte per frame (1 = allocated), so the
// fuzzer can scan and fill a 1 GiB block with bytes.IndexByte and copy.
type allocModel struct {
	base  []MFN
	inUse [][]byte
	used  []int64 // allocated frames per node
}

// allocated is a 1 GiB block's worth of allocated-frame flags.
var allocated = bytes.Repeat([]byte{1}, int(FramesOf(Order1G)))

// newAllocModel returns an all-free model of a's machine.
func newAllocModel(a *Allocator) *allocModel {
	m := &allocModel{}
	per := a.FramesPerNode()
	for n := range a.nodes {
		m.base = append(m.base, MFN(uint64(n)*per))
		m.inUse = append(m.inUse, make([]byte, per))
		m.used = append(m.used, 0)
	}
	return m
}

// reset marks every frame free again.
func (m *allocModel) reset() {
	for n := range m.inUse {
		clear(m.inUse[n])
		m.used[n] = 0
	}
}

// frames returns node's flags for the block (mfn, order), or nil when
// the block does not lie wholly inside node's bank.
func (m *allocModel) frames(node int, mfn MFN, order int) []byte {
	if mfn < m.base[node] {
		return nil
	}
	lo := uint64(mfn - m.base[node])
	hi := lo + FramesOf(order)
	if hi > uint64(len(m.inUse[node])) {
		return nil
	}
	return m.inUse[node][lo:hi]
}

// FuzzAllocator decodes a byte stream into Alloc, Free, bad-Free and
// Reset operations on a two-node machine at orders 0, 9 and 18, and
// checks the allocator against allocModel after every step:
//
//   - each node's free bytes plus its allocated bytes equal its bank;
//   - an allocation is aligned, on the requested node, and covers no
//     frame the model holds as allocated;
//   - freeing a block that holds any free frame (a double free, a block
//     inside a larger free block or around a smaller one), or that
//     leaves its node's bank, panics and changes nothing;
//   - after Reset, FreeBlocks and the next allocation sequence equal
//     those of a freshly built allocator.
//
// At the end the free blocks must cover exactly the frames the model
// holds as free. Each operation takes two bytes. The low two bits of the
// first select the operation (0 and 1 allocate, 2 frees a live block, 3
// is a bad free or, with bit 5 set, a Reset); bit 2 picks the node and
// bits 3–4 the order. The second byte picks the live or previously freed
// block an operation targets.
func FuzzAllocator(f *testing.F) {
	// TestQuickAllocFreeInvariant's shape: even bytes allocate, odd bytes
	// free a live block, cycling nodes and orders.
	quick := make([]byte, 0, 128)
	for i := 0; i < 64; i++ {
		op := byte(i*37) &^ 0x20
		if op&3 == 3 {
			op--
		}
		quick = append(quick, op, byte(i*11))
	}
	f.Add(quick)
	// Fragment node 0 with frames and a 2 MiB block, free them back so
	// they coalesce, then free them again.
	f.Add([]byte{0, 0, 0, 0, 8, 0, 0, 0, 2, 1, 2, 0, 2, 0, 3, 0x80, 3, 0x81, 11, 0x80})
	// Two frames on node 0, the second split from the 2 MiB block, then a
	// free of that 2 MiB block: it contains the free buddies the split
	// left behind. Then a 2 MiB free around the first frame, the bank's
	// last, which leaves the bank.
	f.Add([]byte{0, 0, 0, 0, 11, 1, 11, 0})
	// The 1 GiB block, a reset, and the probe sequence on both nodes.
	f.Add([]byte{16, 0, 4, 0, 12, 0, 0x23, 0, 2, 0, 19, 0x80, 7, 0})
	// Exhaust node 1 at 2 MiB, then free and re-free across the odd base.
	f.Add([]byte{12, 0, 12, 0, 12, 0, 4, 0, 2, 0, 2, 1, 7, 0x80, 15, 0x81, 0x27, 0})

	topo := fuzzTopo()
	m := newAllocModel(NewAllocator(topo))
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAllocator(topo)
		m.reset()
		bank := topo.Nodes[0].MemBytes
		var live, freed []FreeBlock
		panics := func(fn func()) (p bool) {
			defer func() { p = recover() != nil }()
			fn()
			return false
		}
		alloc := func(step, node, order int) (MFN, error) {
			mfn, err := a.Alloc(numa.NodeID(node), order)
			if err != nil {
				if order == Order4K && a.FreeBytes(numa.NodeID(node)) > 0 {
					t.Fatalf("op %d: order-0 alloc on node %d failed with %d bytes free: %v",
						step, node, a.FreeBytes(numa.NodeID(node)), err)
				}
				return mfn, err
			}
			if uint64(mfn)%FramesOf(order) != 0 {
				t.Fatalf("op %d: order-%d block %d misaligned", step, order, mfn)
			}
			if got := a.NodeOf(mfn); got != numa.NodeID(node) {
				t.Fatalf("op %d: alloc on node %d returned MFN %d of node %d", step, node, mfn, got)
			}
			fr := m.frames(node, mfn, order)
			if fr == nil {
				t.Fatalf("op %d: order-%d block %d leaves node %d's bank", step, order, mfn, node)
			}
			if i := bytes.IndexByte(fr, 1); i >= 0 {
				t.Fatalf("op %d: MFN %d handed out twice", step, mfn+MFN(i))
			}
			copy(fr, allocated)
			m.used[node] += int64(len(fr))
			live = append(live, FreeBlock{Start: mfn, Order: order})
			return mfn, nil
		}

		for i := 0; i+1 < len(data) && i < 512; i += 2 {
			step, sel, pick := i/2, data[i], int(data[i+1])
			node := int(sel>>2) & 1
			order := fuzzOrders[sel>>3&3]
			switch sel & 3 {
			case 0, 1:
				alloc(step, node, order)
			case 2:
				if len(live) == 0 {
					continue
				}
				k := pick % len(live)
				b := live[k]
				n := int(a.NodeOf(b.Start))
				a.Free(b.Start, b.Order)
				fr := m.frames(n, b.Start, b.Order)
				clear(fr)
				m.used[n] -= int64(len(fr))
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				freed = append(freed, b)
			case 3:
				if sel&0x20 != 0 {
					a.Reset()
					m.reset()
					live, freed = live[:0], freed[:0]
					fresh := NewAllocator(topo)
					for n := range topo.Nodes {
						got, want := a.FreeBlocks(numa.NodeID(n)), fresh.FreeBlocks(numa.NodeID(n))
						if len(got) != len(want) {
							t.Fatalf("op %d: node %d has %d free blocks after Reset, fresh has %d", step, n, len(got), len(want))
						}
						for j := range got {
							if got[j] != want[j] {
								t.Fatalf("op %d: node %d free block %d = %+v after Reset, fresh has %+v", step, n, j, got[j], want[j])
							}
						}
					}
					for _, probe := range fuzzOrders {
						for n := range topo.Nodes {
							got, err1 := alloc(step, n, probe)
							want, err2 := fresh.Alloc(numa.NodeID(n), probe)
							if got != want || (err1 == nil) != (err2 == nil) {
								t.Fatalf("op %d: post-Reset alloc node %d order %d = %d (%v), fresh gives %d (%v)",
									step, n, probe, got, err1, want, err2)
							}
						}
					}
					continue
				}
				// A bad free: an order-aligned block around a live or a
				// freed block. It must be rejected when any of its frames
				// is free or it leaves its node's bank; a block of
				// allocated frames cannot be told from a valid free.
				src := live
				if pick&0x80 != 0 {
					src = freed
				}
				if len(src) == 0 {
					continue
				}
				b := src[pick&0x7f%len(src)]
				head := b.Start &^ MFN(FramesOf(order)-1)
				n := int(a.NodeOf(head))
				fr := m.frames(n, head, order)
				if fr != nil && bytes.IndexByte(fr, 0) < 0 {
					continue
				}
				before := a.TotalFreeBytes()
				if !panics(func() { a.Free(head, order) }) {
					t.Fatalf("op %d: bad free of order-%d block %d accepted: node %d reports %d free bytes on a %d-byte bank",
						step, order, head, n, a.FreeBytes(numa.NodeID(n)), bank)
				}
				if got := a.TotalFreeBytes(); got != before {
					t.Fatalf("op %d: rejected free changed free bytes %d -> %d", step, before, got)
				}
			}
			for n := range topo.Nodes {
				if got := a.FreeBytes(numa.NodeID(n)) + m.used[n]*PageSize; got != bank {
					t.Fatalf("op %d: node %d free + allocated bytes = %d, bank is %d", step, n, got, bank)
				}
			}
		}

		// The free blocks cover exactly the frames the model holds free.
		for n := range topo.Nodes {
			var frames int64
			for _, b := range a.FreeBlocks(numa.NodeID(n)) {
				fr := m.frames(n, b.Start, b.Order)
				if fr == nil {
					t.Fatalf("node %d free block %+v leaves the bank", n, b)
				}
				if bytes.IndexByte(fr, 1) >= 0 {
					t.Fatalf("node %d free block %+v covers an allocated frame", n, b)
				}
				frames += int64(len(fr))
			}
			if want := int64(len(m.inUse[n])) - m.used[n]; frames != want {
				t.Fatalf("node %d free blocks cover %d frames, model has %d free", n, frames, want)
			}
		}
	})
}
