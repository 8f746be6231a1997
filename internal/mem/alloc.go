// Package mem manages the machine memory: each NUMA node's bank is carved
// into frames handed out by a per-node buddy allocator supporting the
// three region sizes Xen allocates (4 KiB pages, 2 MiB and 1 GiB
// regions). Frames are identified by machine frame numbers (MFNs) global
// to the machine; the node owning an MFN is recovered from the static
// NUMA-region map, exactly as hardware routes accesses (§3 of the paper).
package mem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/numa"
)

// PageSize is the base frame size.
const PageSize = 4 << 10 // 4 KiB

// MFN is a machine frame number: a machine address divided by PageSize.
type MFN uint64

// PFN is a guest physical frame number: an address in a virtual machine's
// physical address space divided by PageSize.
type PFN uint64

// NoMFN is the sentinel for "not mapped".
const NoMFN = MFN(^uint64(0))

// Buddy orders for the three Xen allocation granularities.
const (
	Order4K  = 0  // 4 KiB
	Order2M  = 9  // 2 MiB = 512 frames
	Order1G  = 18 // 1 GiB = 262144 frames
	maxOrder = Order1G
)

// FramesOf returns the frame count of a block of the given order.
func FramesOf(order int) uint64 { return 1 << uint(order) }

// ErrNoMemory is returned when a node (or the machine) cannot satisfy an
// allocation at the requested order.
var ErrNoMemory = errors.New("mem: out of memory")

// Allocator owns the machine memory of a Topology.
type Allocator struct {
	topo          *numa.Topology
	framesPerNode uint64
	nodes         []nodeAlloc
}

type nodeAlloc struct {
	base     MFN // first frame of the node's bank
	frames   uint64
	freeList [maxOrder + 1][]MFN // LIFO free lists per order
	// freeMap is the buddy bitmap of each order: bit (mfn-base)>>o of
	// freeMap[o] is set iff the order-o block at mfn is on freeList[o].
	// Coalescing reads it instead of searching the lists.
	freeMap [maxOrder + 1][]uint64
	// allocated holds one bit per frame, set from Alloc to Free. Free
	// checks its whole range against it, which rejects a double free, a
	// free inside a free block and a free holding a free block alike.
	allocated []uint64
	freeBytes int64
}

// NewAllocator carves topo's memory into per-node buddy pools. All nodes
// must have the same bank size (true for every machine in this repo).
// Every node's buddy bitmaps and allocated bitmap are slices of one
// backing array, about three bits per frame.
func NewAllocator(topo *numa.Topology) *Allocator {
	if topo.NumNodes() == 0 {
		panic("mem: topology has no nodes")
	}
	per := uint64(topo.Nodes[0].MemBytes) / PageSize
	for _, n := range topo.Nodes {
		if uint64(n.MemBytes)/PageSize != per {
			panic("mem: heterogeneous node sizes not supported")
		}
	}
	a := &Allocator{topo: topo, framesPerNode: per, nodes: make([]nodeAlloc, topo.NumNodes())}
	words := bitmapWords(per, 0) // the allocated bitmap
	for o := 0; o <= maxOrder; o++ {
		words += bitmapWords(per, o)
	}
	bits := make([]uint64, words*uint64(len(a.nodes)))
	for i := range a.nodes {
		na := &a.nodes[i]
		na.base, na.frames = MFN(uint64(i)*per), per
		w := bitmapWords(per, 0)
		na.allocated, bits = bits[:w:w], bits[w:]
		for o := range na.freeMap {
			w := bitmapWords(per, o)
			na.freeMap[o], bits = bits[:w:w], bits[w:]
		}
		na.seed()
	}
	return a
}

// bitmapWords returns the words an order-o bitmap of a frames-long bank
// needs: one bit per order-o block that can start inside the bank.
func bitmapWords(frames uint64, o int) uint64 {
	return ((frames-1)>>uint(o) + 64) / 64
}

// seed fills the node's free lists with the largest aligned blocks that
// fit, lowest address first — the pristine shape every allocation
// sequence starts from. It assumes the lists and bitmaps are empty.
func (na *nodeAlloc) seed() {
	na.freeBytes = int64(na.frames) * PageSize
	start, remaining := na.base, na.frames
	for remaining > 0 {
		order := maxOrder
		for FramesOf(order) > remaining || uint64(start)%FramesOf(order) != 0 {
			order--
			if order < 0 {
				panic("mem: unalignable bank")
			}
		}
		na.push(order, start)
		start += MFN(FramesOf(order))
		remaining -= FramesOf(order)
	}
}

// Reset returns every node's free lists to the pristine shape
// NewAllocator seeds — same blocks, same per-order LIFO order — no
// matter what sequence of Alloc and Free calls ran in between. The
// existing list and bitmap storage is reused, so a reset machine
// allocates nothing new. Only the buddy bits of blocks still on the
// free lists are cleared; the allocated bitmap is cleared a word at a
// time, 64 frames per word. It is the bottom layer of the warm-machine
// reset protocol: every allocation after a Reset behaves bit-for-bit as
// on a freshly built allocator.
func (a *Allocator) Reset() {
	for i := range a.nodes {
		na := &a.nodes[i]
		for o, l := range na.freeList {
			for _, b := range l {
				na.clearFree(o, b)
			}
			na.freeList[o] = l[:0]
		}
		clear(na.allocated)
		na.seed()
	}
}

// NodeOf returns the node owning mfn (the NUMA-region map).
func (a *Allocator) NodeOf(mfn MFN) numa.NodeID {
	n := uint64(mfn) / a.framesPerNode
	if n >= uint64(len(a.nodes)) {
		panic(fmt.Sprintf("mem: MFN %d outside machine memory", mfn))
	}
	return numa.NodeID(n)
}

// FramesPerNode returns each node's frame count.
func (a *Allocator) FramesPerNode() uint64 { return a.framesPerNode }

// FreeBytes returns the free memory on node.
func (a *Allocator) FreeBytes(node numa.NodeID) int64 { return a.nodes[node].freeBytes }

// TotalFreeBytes returns machine-wide free memory.
func (a *Allocator) TotalFreeBytes() int64 {
	var sum int64
	for i := range a.nodes {
		sum += a.nodes[i].freeBytes
	}
	return sum
}

// Alloc allocates a block of 2^order frames on node. It fails with
// ErrNoMemory when the node cannot satisfy the request even after
// splitting larger blocks; it never falls back to another node (callers
// implement their own fallback policy, e.g. first-touch round-robin).
func (a *Allocator) Alloc(node numa.NodeID, order int) (MFN, error) {
	if order < 0 || order > maxOrder {
		panic(fmt.Sprintf("mem: invalid order %d", order))
	}
	na := &a.nodes[node]
	// Find the smallest populated order >= requested.
	from := order
	for from <= maxOrder && len(na.freeList[from]) == 0 {
		from++
	}
	if from > maxOrder {
		return NoMFN, fmt.Errorf("%w: node %d order %d", ErrNoMemory, node, order)
	}
	// Pop and split down to the requested order.
	block := na.pop(from)
	for from > order {
		from--
		buddy := block + MFN(FramesOf(from))
		na.push(from, buddy)
	}
	setRange(na.allocated, uint64(block-na.base), FramesOf(order))
	na.freeBytes -= int64(FramesOf(order)) * PageSize
	return block, nil
}

// Free returns a block allocated at the given order, coalescing buddies.
func (a *Allocator) Free(mfn MFN, order int) {
	if order < 0 || order > maxOrder {
		panic(fmt.Sprintf("mem: invalid order %d", order))
	}
	node := a.NodeOf(mfn)
	na := &a.nodes[node]
	if uint64(mfn)%FramesOf(order) != 0 {
		panic(fmt.Sprintf("mem: freeing misaligned block %d at order %d", mfn, order))
	}
	lo := uint64(mfn - na.base)
	if lo+FramesOf(order) > na.frames {
		panic(fmt.Sprintf("mem: freeing block %d at order %d past the end of node %d's bank", mfn, order, node))
	}
	// Every frame of the block must be allocated: a frame that is free
	// means a double free, a free inside a larger free block, or a free
	// holding a smaller one.
	if !allSet(na.allocated, lo, FramesOf(order)) {
		panic(fmt.Sprintf("mem: double free: block %d at order %d holds a free frame", mfn, order))
	}
	clearRange(na.allocated, lo, FramesOf(order))
	na.freeBytes += int64(FramesOf(order)) * PageSize
	// Coalesce upward while the buddy is free at the same order; a buddy
	// outside the node bank never is.
	for order < maxOrder {
		buddy := mfn ^ MFN(FramesOf(order))
		if !na.isFree(order, buddy) {
			break
		}
		na.remove(order, buddy)
		if buddy < mfn {
			mfn = buddy
		}
		order++
	}
	na.push(order, mfn)
}

func (na *nodeAlloc) pop(order int) MFN {
	l := na.freeList[order]
	block := l[len(l)-1]
	na.freeList[order] = l[:len(l)-1]
	na.clearFree(order, block)
	return block
}

func (na *nodeAlloc) push(order int, block MFN) {
	na.freeList[order] = append(na.freeList[order], block)
	w, bit := na.bit(order, block)
	*w |= bit
}

func (na *nodeAlloc) remove(order int, block MFN) {
	l := na.freeList[order]
	for i, b := range l {
		if b == block {
			l[i] = l[len(l)-1]
			na.freeList[order] = l[:len(l)-1]
			na.clearFree(order, block)
			return
		}
	}
	panic(fmt.Sprintf("mem: block %d not on free list at order %d", block, order))
}

// bit locates the order-o block at block in freeMap[order]: the word
// holding its bit, and the bit.
func (na *nodeAlloc) bit(order int, block MFN) (*uint64, uint64) {
	i := uint64(block-na.base) >> uint(order)
	return &na.freeMap[order][i/64], 1 << (i % 64)
}

// clearFree clears the bit of the order-o block at block.
func (na *nodeAlloc) clearFree(order int, block MFN) {
	w, bit := na.bit(order, block)
	*w &^= bit
}

// wordMask returns the bits of word w of a bitmap that fall in the bit
// range [lo, hi).
func wordMask(w, lo, hi uint64) uint64 {
	m := ^uint64(0)
	if w == lo/64 {
		m &= ^uint64(0) << (lo % 64)
	}
	if end := (w + 1) * 64; end > hi {
		m &= ^uint64(0) >> (end - hi)
	}
	return m
}

// setRange sets bits [lo, lo+n) of bits, a word at a time.
func setRange(bits []uint64, lo, n uint64) {
	hi := lo + n
	for w := lo / 64; w*64 < hi; w++ {
		bits[w] |= wordMask(w, lo, hi)
	}
}

// clearRange clears bits [lo, lo+n) of bits, a word at a time.
func clearRange(bits []uint64, lo, n uint64) {
	hi := lo + n
	for w := lo / 64; w*64 < hi; w++ {
		bits[w] &^= wordMask(w, lo, hi)
	}
}

// allSet reports whether every bit of [lo, lo+n) of bits is set,
// testing a word at a time.
func allSet(bits []uint64, lo, n uint64) bool {
	hi := lo + n
	for w := lo / 64; w*64 < hi; w++ {
		if m := wordMask(w, lo, hi); bits[w]&m != m {
			return false
		}
	}
	return true
}

// isFree reports whether the order-o block at mfn is on the node's free
// list at that order. A block starting outside the bank never is.
func (na *nodeAlloc) isFree(order int, mfn MFN) bool {
	if mfn < na.base || uint64(mfn-na.base) >= na.frames {
		return false
	}
	w, bit := na.bit(order, mfn)
	return *w&bit != 0
}

// FreeBlocks returns a sorted snapshot of node's free blocks (start,
// order) for inspection in tests.
func (a *Allocator) FreeBlocks(node numa.NodeID) []FreeBlock {
	na := &a.nodes[node]
	var out []FreeBlock
	for o := range na.freeList {
		for _, b := range na.freeList[o] {
			out = append(out, FreeBlock{Start: b, Order: o})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// FreeBlock describes one free extent.
type FreeBlock struct {
	Start MFN
	Order int
}
