package policy

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/pt"
)

// fakeDomain implements DomainOps over plain maps for isolated policy
// tests.
type fakeDomain struct {
	homes    []numa.NodeID
	table    *pt.HypervisorTable
	nextMFN  mem.MFN
	nodeOf   map[mem.MFN]numa.NodeID
	free     map[numa.NodeID]int64
	freed    []mem.MFN
	migrated int
}

func newFakeDomain(homes ...numa.NodeID) *fakeDomain {
	return &fakeDomain{
		homes:  homes,
		table:  pt.NewHypervisorTable(),
		nodeOf: make(map[mem.MFN]numa.NodeID),
		free:   make(map[numa.NodeID]int64),
	}
}

func (d *fakeDomain) HomeNodes() []numa.NodeID      { return d.homes }
func (d *fakeDomain) Table() *pt.HypervisorTable    { return d.table }
func (d *fakeDomain) FreeFrame(m mem.MFN)           { d.freed = append(d.freed, m) }
func (d *fakeDomain) FreeBytes(n numa.NodeID) int64 { return d.free[n] }
func (d *fakeDomain) NodeOfFrame(m mem.MFN) numa.NodeID {
	n, ok := d.nodeOf[m]
	if !ok {
		panic(fmt.Sprintf("unknown frame %d", m))
	}
	return n
}

func (d *fakeDomain) AllocFrameOn(n numa.NodeID) (mem.MFN, error) {
	m := d.nextMFN
	d.nextMFN++
	d.nodeOf[m] = n
	d.free[n] -= mem.PageSize
	return m, nil
}

// testNodes is the node count of the machine the policy tests build
// policies for; fake domains use home nodes below it.
const testNodes = 4

// newPolicy builds kind's runtime policy through the registry for a
// machine of nodes nodes.
func newPolicy(kind Kind, nodes int) (*Policy, error) {
	d, arg, err := Describe(kind)
	if err != nil {
		return nil, err
	}
	p, err := d.Runtime(arg, nodes)
	return &p, err
}

// mustNew builds a policy through the registry, failing the test on a
// bad kind.
func mustNew(t *testing.T, k Kind) *Policy {
	t.Helper()
	p, err := newPolicy(k, testNodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (d *fakeDomain) MapPage(p mem.PFN, m mem.MFN) { d.table.Map(p, m) }

func (d *fakeDomain) MigratePage(p mem.PFN, to numa.NodeID) bool {
	e := d.table.Lookup(p)
	if !e.Valid || d.nodeOf[e.MFN] == to {
		return false
	}
	m, _ := d.AllocFrameOn(to)
	d.table.Map(p, m)
	d.migrated++
	return true
}

func (d *fakeDomain) InvalidatePage(p mem.PFN) {
	if m := d.table.Invalidate(p); m != mem.NoMFN {
		d.FreeFrame(m)
	}
}

func TestKindStrings(t *testing.T) {
	if Round1G.String() != "round-1G" || Round4K.String() != "round-4K" || FirstTouch.String() != "first-touch" {
		t.Fatal("kind strings wrong")
	}
	cfg := Config{Static: Round4K, Carrefour: true}
	if cfg.String() != "round-4K/carrefour" {
		t.Fatalf("config string = %q", cfg.String())
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := newPolicy(Kind("numa-magic"), testNodes); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := newPolicy(Kind(""), testNodes); err == nil {
		t.Fatal("empty kind accepted")
	}
}

func TestFirstTouchPlacesOnAccessor(t *testing.T) {
	d := newFakeDomain(0, 1, 2, 3)
	p := mustNew(t, FirstTouch)
	p.HandleFault(d, 42, 3, pt.FaultNotPresent)
	e := d.table.Lookup(42)
	if !e.Valid || d.NodeOfFrame(e.MFN) != 3 {
		t.Fatal("first-touch did not place on the accessor's node")
	}
}

func TestRoundStaticFaultRoundRobins(t *testing.T) {
	d := newFakeDomain(0, 1)
	p := mustNew(t, Round4K)
	nodes := make(map[numa.NodeID]int)
	for i := mem.PFN(0); i < 10; i++ {
		p.HandleFault(d, i, 0, pt.FaultNotPresent)
		e := d.table.Lookup(i)
		nodes[d.NodeOfFrame(e.MFN)]++
	}
	if nodes[0] != 5 || nodes[1] != 5 {
		t.Fatalf("round-robin fault placement uneven: %v", nodes)
	}
}

func TestWriteProtectFaultUnprotects(t *testing.T) {
	for _, kind := range []Kind{Round4K, FirstTouch, Interleave, LeastLoaded, "bind:0"} {
		d := newFakeDomain(0)
		p := mustNew(t, kind)
		m, _ := d.AllocFrameOn(0)
		d.MapPage(7, m)
		d.table.WriteProtect(7)
		p.HandleFault(d, 7, 0, pt.FaultWriteProtected)
		if d.table.Lookup(7).WriteProtect {
			t.Fatalf("%v left the entry write-protected", kind)
		}
	}
}

func TestPageQueueReleaseInvalidates(t *testing.T) {
	d := newFakeDomain(0)
	p := mustNew(t, FirstTouch)
	m, _ := d.AllocFrameOn(0)
	d.MapPage(1, m)
	n := p.OnPageQueue(d, []PageOp{{Kind: OpRelease, PFN: 1}})
	if n != 1 {
		t.Fatalf("invalidated = %d", n)
	}
	if d.table.Lookup(1).Valid {
		t.Fatal("entry still valid")
	}
	if len(d.freed) != 1 || d.freed[0] != m {
		t.Fatal("frame not freed")
	}
}

func TestPageQueueScanIsNewestFirst(t *testing.T) {
	d := newFakeDomain(0)
	p := mustNew(t, FirstTouch)
	m, _ := d.AllocFrameOn(0)
	d.MapPage(1, m)
	// Oldest→newest: release, alloc. The page was reallocated after the
	// release, so it must NOT be invalidated (§4.2.4).
	n := p.OnPageQueue(d, []PageOp{
		{Kind: OpRelease, PFN: 1},
		{Kind: OpAlloc, PFN: 1},
	})
	if n != 0 || !d.table.Lookup(1).Valid {
		t.Fatal("reallocated page invalidated")
	}
	// Newest is a release → invalidate.
	n = p.OnPageQueue(d, []PageOp{
		{Kind: OpAlloc, PFN: 1},
		{Kind: OpRelease, PFN: 1},
	})
	if n != 1 || d.table.Lookup(1).Valid {
		t.Fatal("released page survived")
	}
}

func TestPageQueueDuplicateReleases(t *testing.T) {
	d := newFakeDomain(0)
	p := mustNew(t, FirstTouch)
	m, _ := d.AllocFrameOn(0)
	d.MapPage(3, m)
	// The same page released twice in one batch must only be processed
	// once (visited-set, §4.2.4).
	n := p.OnPageQueue(d, []PageOp{
		{Kind: OpRelease, PFN: 3},
		{Kind: OpRelease, PFN: 3},
	})
	if n != 1 {
		t.Fatalf("invalidated = %d, want 1", n)
	}
	if len(d.freed) != 1 {
		t.Fatalf("freed %d frames, want 1 (double free!)", len(d.freed))
	}
}

func TestRoundStaticIgnoresPageQueue(t *testing.T) {
	d := newFakeDomain(0)
	for _, kind := range []Kind{Round4K, Round1G, Interleave, LeastLoaded, "bind:0"} {
		p := mustNew(t, kind)
		m, _ := d.AllocFrameOn(0)
		d.MapPage(9, m)
		if n := p.OnPageQueue(d, []PageOp{{Kind: OpRelease, PFN: 9}}); n != 0 {
			t.Fatalf("%v processed the queue", kind)
		}
		if !d.table.Lookup(9).Valid {
			t.Fatalf("%v invalidated a page", kind)
		}
		d.table.Invalidate(9)
	}
}

// TestQuickPageQueueProtocol property-tests the reconciliation rule: for
// any op sequence, a page ends invalid iff its newest op is a release.
func TestQuickPageQueueProtocol(t *testing.T) {
	check := func(raw []uint8) bool {
		d := newFakeDomain(0)
		p := mustNew(t, FirstTouch)
		const pages = 8
		for i := mem.PFN(0); i < pages; i++ {
			m, _ := d.AllocFrameOn(0)
			d.MapPage(i, m)
		}
		ops := make([]PageOp, len(raw))
		newest := make(map[mem.PFN]PageOpKind)
		for i, r := range raw {
			op := PageOp{Kind: PageOpKind(r % 2), PFN: mem.PFN(r) % pages}
			ops[i] = op
			newest[op.PFN] = op.Kind
		}
		p.OnPageQueue(d, ops)
		for i := mem.PFN(0); i < pages; i++ {
			k, touched := newest[i]
			wantValid := !touched || k == OpAlloc
			if d.table.Lookup(i).Valid != wantValid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPageOpKindString(t *testing.T) {
	if OpAlloc.String() != "alloc" || OpRelease.String() != "release" {
		t.Fatal("op kind strings wrong")
	}
}
