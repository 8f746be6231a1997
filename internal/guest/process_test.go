package guest

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/pt"
)

func testOS(t *testing.T) *OS {
	t.Helper()
	_, d := testDomain(t)
	return NewOS(d, 64, DefaultQueueConfig())
}

func TestProcessMmapTouchMunmap(t *testing.T) {
	g := testOS(t)
	p := g.NewProcess(1)
	start, _, err := p.Mmap(10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Fatal("mmap allocated physical memory eagerly")
	}
	// First touches fault and allocate; re-touches are free.
	pfn0, cost, err := p.Touch(start)
	if err != nil || cost <= 0 {
		t.Fatalf("first touch: %v cost %v", err, cost)
	}
	again, cost2, _ := p.Touch(start)
	if again != pfn0 || cost2 != 0 {
		t.Fatal("re-touch changed the page or charged time")
	}
	for v := start + 1; v < start+10; v++ {
		if _, _, err := p.Touch(v); err != nil {
			t.Fatal(err)
		}
	}
	if p.Resident() != 10 {
		t.Fatalf("resident = %d", p.Resident())
	}
	inUse := g.Phys.InUse()
	if _, err := p.Munmap(start); err != nil {
		t.Fatal(err)
	}
	if p.Resident() != 0 {
		t.Fatal("munmap left resident pages")
	}
	if g.Phys.InUse() != inUse-10 {
		t.Fatal("munmap leaked physical pages")
	}
}

func TestProcessMunmapValidation(t *testing.T) {
	g := testOS(t)
	p := g.NewProcess(1)
	if _, err := p.Munmap(pt.VPN(99)); err == nil {
		t.Fatal("munmap of unmapped region accepted")
	}
	start, _, _ := p.Mmap(2)
	if _, err := p.Munmap(start); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Munmap(start); err == nil {
		t.Fatal("double munmap accepted")
	}
}

func TestProcessPartiallyTouchedMunmap(t *testing.T) {
	g := testOS(t)
	p := g.NewProcess(1)
	start, _, _ := p.Mmap(100)
	p.Touch(start + 5)
	p.Touch(start + 50)
	inUse := g.Phys.InUse()
	if _, err := p.Munmap(start); err != nil {
		t.Fatal(err)
	}
	if g.Phys.InUse() != inUse-2 {
		t.Fatal("untouched pages were 'freed'")
	}
}

func TestProcessChurnNotifiesUnderFirstTouch(t *testing.T) {
	g := testOS(t)
	p := g.NewProcess(1)
	// One Streamflow-style allocator cycle: mmap one page, touch it,
	// munmap it.
	churn := func() {
		t.Helper()
		v, _, err := p.Mmap(1)
		if err == nil {
			_, _, err = p.Touch(v)
		}
		if err == nil {
			_, err = p.Munmap(v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Inactive policy: no notifications.
	churn()
	if g.Queue.Ops != 0 {
		t.Fatal("notifications while queue inactive")
	}
	if _, err := g.SetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
		t.Fatal(err)
	}
	before := g.Queue.Ops
	churn()
	// One alloc + one release notification per churn cycle (§4.2.3).
	if g.Queue.Ops != before+2 {
		t.Fatalf("ops = %d, want %d", g.Queue.Ops, before+2)
	}
}

func TestProcessAddressSpacesIndependent(t *testing.T) {
	g := testOS(t)
	p1 := g.NewProcess(1)
	p2 := g.NewProcess(2)
	v1, _, _ := p1.Mmap(1)
	v2, _, _ := p2.Mmap(1)
	f1, _, _ := p1.Touch(v1)
	f2, _, _ := p2.Touch(v2)
	if f1 == f2 {
		t.Fatal("two processes share a physical page")
	}
}
