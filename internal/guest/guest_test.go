package guest

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/xen"
)

// newPhysAlloc returns an allocator booted on a physical space of
// total pages with the first reserved pages kernel-owned.
func newPhysAlloc(total, reserved uint64) *PhysAlloc {
	a := new(PhysAlloc)
	a.Reset(total, reserved)
	return a
}

func testDomain(t *testing.T) (*xen.Hypervisor, *xen.Domain) {
	t.Helper()
	topo := numa.SmallMachine(4, 4, 64<<20)
	hv, err := xen.New(topo, sim.NewEngine(), xen.Config{HugeOrder: 10, MidOrder: 3, IOMMU: true}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hv.CreateDomain(xen.DomainSpec{
		Name: "u1", VCPUs: 4, MemBytes: 16 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hv, d
}

func TestPhysAllocLowFirstThenLIFO(t *testing.T) {
	a := newPhysAlloc(100, 10)
	p1, err := a.Alloc()
	if err != nil || p1 != 10 {
		t.Fatalf("first page = %d, %v; want 10 (after reserve)", p1, err)
	}
	p2, _ := a.Alloc()
	if p2 != 11 {
		t.Fatalf("second page = %d", p2)
	}
	a.Free(p1)
	p3, _ := a.Alloc()
	if p3 != p1 {
		t.Fatalf("freed page not reused LIFO: got %d, want %d", p3, p1)
	}
}

func TestPhysAllocExhaustion(t *testing.T) {
	a := newPhysAlloc(12, 10)
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("allocation beyond the physical space succeeded")
	}
}

func TestPhysAllocDoubleFreePanics(t *testing.T) {
	a := newPhysAlloc(100, 0)
	p, _ := a.Alloc()
	a.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(p)
}

func TestPhysAllocFreePages(t *testing.T) {
	a := newPhysAlloc(20, 4)
	p, _ := a.Alloc()
	q, _ := a.Alloc()
	a.Free(p)
	free := a.FreePages()
	// One freed page + 14 never-touched pages.
	if len(free) != 15 {
		t.Fatalf("free pages = %d, want 15", len(free))
	}
	for _, f := range free {
		if f == q {
			t.Fatal("in-use page listed as free")
		}
	}
}

func TestQueuePartitioning(t *testing.T) {
	_, d := testDomain(t)
	q := NewPageQueue(d, DefaultQueueConfig())
	// Pages with equal low bits go to the same queue; the queue must not
	// flush before BatchSize entries.
	for i := 0; i < 63; i++ {
		q.Add(policy.OpRelease, mem.PFN(i*4)) // all hit queue 0
	}
	if q.Flushes != 0 {
		t.Fatalf("premature flush after 63 ops")
	}
	if q.Pending() != 63 {
		t.Fatalf("pending = %d", q.Pending())
	}
	q.Add(policy.OpRelease, mem.PFN(63*4))
	if q.Flushes != 1 {
		t.Fatalf("flushes = %d after filling the batch", q.Flushes)
	}
	if q.Pending() != 0 {
		t.Fatal("queue not drained by flush")
	}
}

func TestQueueIndependentQueues(t *testing.T) {
	_, d := testDomain(t)
	q := NewPageQueue(d, DefaultQueueConfig())
	// Spread over the 4 queues: no flush until one queue fills.
	for i := 0; i < 4*63; i++ {
		q.Add(policy.OpRelease, mem.PFN(i))
	}
	if q.Flushes != 0 {
		t.Fatalf("flushes = %d, want 0 (each queue at 63/64)", q.Flushes)
	}
	cost := q.FlushAll()
	if q.Flushes != 4 || cost <= 0 {
		t.Fatalf("FlushAll: flushes = %d cost = %v", q.Flushes, cost)
	}
}

func TestUnbatchedQueueFlushesEveryOp(t *testing.T) {
	_, d := testDomain(t)
	q := NewPageQueue(d, QueueConfig{Queues: 1, BatchSize: 1, Unbatched: true})
	q.Add(policy.OpRelease, 1)
	q.Add(policy.OpRelease, 2)
	if q.Flushes != 2 {
		t.Fatalf("unbatched flushes = %d", q.Flushes)
	}
}

func TestOSSetPolicyFirstTouchPrimesFreeList(t *testing.T) {
	_, d := testDomain(t)
	g := NewOS(d, 64, DefaultQueueConfig())
	// Allocate a page that stays in use across the switch.
	used, _, err := g.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	cost, err := g.SetPolicy(policy.Config{Static: policy.FirstTouch})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("free-list flush cost not charged")
	}
	if !g.QueueActive() {
		t.Fatal("queue not active under first-touch")
	}
	// The in-use page must survive; a free page must be invalidated.
	if _, ok := d.NodeOfPFN(used); !ok {
		t.Fatal("in-use page invalidated by the free-list flush")
	}
	invalidated := 0
	for p := uint64(64); p < d.PhysPages(); p++ {
		if _, ok := d.NodeOfPFN(mem.PFN(p)); !ok {
			invalidated++
		}
	}
	if invalidated == 0 {
		t.Fatal("no free page invalidated after switching to first-touch")
	}
}

func TestOSAllocFreeNotifiesOnlyWhenActive(t *testing.T) {
	_, d := testDomain(t)
	g := NewOS(d, 64, DefaultQueueConfig())
	p, _, err := g.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	g.FreePage(p)
	if g.Queue.Ops != 0 {
		t.Fatal("queue used while inactive")
	}
	g.SetPolicy(policy.Config{Static: policy.FirstTouch})
	before := g.Queue.Ops
	p, _, _ = g.AllocPage()
	g.FreePage(p)
	if g.Queue.Ops != before+2 {
		t.Fatalf("queue ops = %d, want %d", g.Queue.Ops, before+2)
	}
}

func TestChurnModelUnbatchedDividesBy3(t *testing.T) {
	// §4.2.3: one release per 15 µs per core with a hypercall per
	// release divides wrmem's performance by ~3.
	m := ChurnModel{Cfg: QueueConfig{Queues: 1, BatchSize: 1, Unbatched: true}, Threads: 48}
	slowdown := 1 + m.OverheadFraction(15000)
	if slowdown < 2.5 || slowdown > 3.7 {
		t.Fatalf("unbatched slowdown = %.2fx, want ~3x", slowdown)
	}
}

func TestChurnModelBatchedIsCheap(t *testing.T) {
	m := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 48}
	frac := m.OverheadFraction(15000)
	if frac > 0.10 {
		t.Fatalf("batched overhead = %.3f, want < 0.10", frac)
	}
}

func TestChurnModelGlobalQueueWorseThanPartitioned(t *testing.T) {
	global := ChurnModel{Cfg: QueueConfig{Queues: 1, BatchSize: 64}, Threads: 48}
	part := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 48}
	g := global.PerReleaseNs(15000)
	p := part.PerReleaseNs(15000)
	if g <= p {
		t.Fatalf("global queue (%v ns) not worse than partitioned (%v ns)", g, p)
	}
}

func TestChurnModelZeroRate(t *testing.T) {
	m := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 48}
	if m.OverheadFraction(0) != 0 {
		t.Fatal("zero rate has overhead")
	}
}

// TestQuickQueueNeverLosesOps property-tests that every added op reaches
// the hypervisor exactly once across flushes.
func TestQuickQueueNeverLosesOps(t *testing.T) {
	_, d := testDomain(t)
	check := func(pfns []uint16) bool {
		q := NewPageQueue(d, QueueConfig{Queues: 4, BatchSize: 8})
		for _, p := range pfns {
			q.Add(policy.OpAlloc, mem.PFN(p))
		}
		q.FlushAll()
		return q.Ops == uint64(len(pfns)) && q.Pending() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnModelMatchesEventLevelDriver cross-checks the analytic model
// against the real queue protocol: at negligible offered load (no lock
// contention), the model's per-release cost must equal the measured
// average cost of driving the actual partitioned queues.
func TestChurnModelMatchesEventLevelDriver(t *testing.T) {
	_, d := testDomain(t)
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	q := NewPageQueue(d, DefaultQueueConfig())
	const ops = 4 * 64 * 10 // forty full batches
	var total sim.Time
	for i := 0; i < ops; i++ {
		// Alternate alloc/release over distinct pages so flushes carry
		// half releases, like steady-state churn.
		kind := policy.OpAlloc
		if i%2 == 1 {
			kind = policy.OpRelease
		}
		total += q.Add(kind, mem.PFN(i%1024))
	}
	total += q.FlushAll()
	measured := float64(total) / ops

	m := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 1}
	predicted := m.PerReleaseNs(1e9) // one op per second: no contention
	// The model assumes all-release batches (64 invalidations); the
	// measured stream invalidates half as many entries, so the model
	// must bracket the measurement from above within the invalidation
	// share.
	if measured > predicted {
		t.Fatalf("event-level cost %v ns/op exceeds the model's uncontended %v ns/op", measured, predicted)
	}
	if measured < predicted/2 {
		t.Fatalf("event-level cost %v ns/op below half the model (%v): model diverged", measured, predicted)
	}
}
