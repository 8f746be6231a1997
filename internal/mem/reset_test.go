package mem

import (
	"reflect"
	"testing"

	"repro/internal/numa"
)

// TestResetRestoresPristineFreeLists pins the warm-pool reset invariant
// at the bottom layer: after an arbitrary alloc/free history — splits,
// partial frees, coalescing, cross-order churn — Reset must leave every
// node's free lists bit-identical to a freshly constructed allocator:
// same blocks, same orders, same per-order LIFO order, same buddy
// bitmaps. Any deviation would make allocations on a pooled machine
// diverge from a cold-built one.
func TestResetRestoresPristineFreeLists(t *testing.T) {
	topo := numa.AMD48Scaled(256)
	a := NewAllocator(topo)
	fresh := NewAllocator(topo)

	// Churn: allocate a mix of orders on every node and free only the
	// odd blocks, so the free lists end up far from pristine. The even
	// blocks are leaked on purpose: Reset must restore pristine shape
	// regardless of outstanding allocations (the pool resets machines
	// whose domains were recycled, not individually freed).
	churn := func() {
		for n := 0; n < topo.NumNodes(); n++ {
			node := numa.NodeID(n)
			for i, order := range []int{0, 0, 3, 1, 0, 5, 2} {
				mfn, err := a.Alloc(node, order)
				if err != nil {
					t.Fatalf("node %d alloc order %d: %v", n, order, err)
				}
				if i%2 == 1 {
					a.Free(mfn, order)
				}
			}
		}
	}
	churn()
	if reflect.DeepEqual(a.nodes, fresh.nodes) {
		t.Fatal("churn did not perturb the allocator; test is vacuous")
	}

	a.Reset()

	for n := range a.nodes {
		got, want := &a.nodes[n], &fresh.nodes[n]
		if got.freeBytes != want.freeBytes {
			t.Errorf("node %d freeBytes = %d, want %d", n, got.freeBytes, want.freeBytes)
		}
		for o := range got.freeList {
			g, w := got.freeList[o], want.freeList[o]
			if len(g) == 0 && len(w) == 0 {
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("node %d order %d free list = %v, want %v", n, o, g, w)
			}
		}
		for o := range got.freeMap {
			if !reflect.DeepEqual(got.freeMap[o], want.freeMap[o]) {
				t.Errorf("node %d order %d buddy bitmap diverges after Reset", n, o)
			}
		}
	}

	// And the restored allocator must behave identically: the next
	// allocation sequence matches a fresh allocator's bit-for-bit.
	for n := 0; n < topo.NumNodes(); n++ {
		node := numa.NodeID(n)
		for _, order := range []int{1, 0, 4} {
			got, err1 := a.Alloc(node, order)
			want, err2 := fresh.Alloc(node, order)
			if err1 != nil || err2 != nil {
				t.Fatalf("post-reset alloc: %v / %v", err1, err2)
			}
			if got != want {
				t.Fatalf("post-reset alloc on node %d order %d = %d, fresh gives %d", n, order, got, want)
			}
		}
	}

	// Reset reuses the list and bitmap storage and touches only the
	// blocks still listed: once the lists have grown to the churn's
	// depth, churning and resetting again allocates nothing.
	if allocs := testing.AllocsPerRun(5, func() { churn(); a.Reset() }); allocs != 0 {
		t.Fatalf("churn plus Reset allocates %.1f times per run, want 0", allocs)
	}
}
