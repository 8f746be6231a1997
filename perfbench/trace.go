package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	xennuma "repro"
	"repro/internal/carrefour"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/guest"
	"repro/internal/linux"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xen"
)

// The traced replica re-runs every cell of an untraced run through the
// layers' public functions — xen.New / Hypervisor.Reset, CreateDomain,
// guest.RebuildBackend, linux.New, engine.Run with a timing wrapper
// around the engine.Backend, and the facade for two-VM pair cells — and
// records a span around each call. Its results must equal the untraced
// run's exp.Suite.Snapshot bit for bit; a mismatch is a correctness
// failure of the benchmark, never a slow result.

// cellKind classifies a suite cell by the facade entry point it uses.
type cellKind int

const (
	xenCell cellKind = iota
	linuxCell
	pairCell
)

func (k cellKind) String() string {
	return [...]string{"xen", "linux", "pair"}[k]
}

// cellSpec is one suite cell decoded from its cache key.
type cellSpec struct {
	key  string // full cache key, "seed=N/<cell>"
	seed uint64 // the suite seed N
	sub  string // the cell part of the key, the stream-derivation input
	kind cellKind
	app  string
	pol  string
	flag bool // xen: XenPlus; linux: MCS
	// pair cells only
	appB string
	polB string
	mode xennuma.PairMode
	swap bool
}

// parseCellKey decodes an exp cache key:
//
//	seed=N/xen/<app>/<policy>/plus=<bool>
//	seed=N/linux/<app>/<policy>/mcs=<bool>
//	seed=N/pair/<appA>=<policyA>/<appB>=<policyB>/mode=<int>/swap=<bool>
//
// Policies may contain '/' ("round-4k/carrefour"); application names
// and policies never contain '='.
func parseCellKey(key string) (cellSpec, error) {
	c := cellSpec{key: key}
	head, sub, ok := strings.Cut(key, "/")
	if !ok || !strings.HasPrefix(head, "seed=") {
		return c, fmt.Errorf("cell key %q: no seed prefix", key)
	}
	seed, err := strconv.ParseUint(strings.TrimPrefix(head, "seed="), 10, 64)
	if err != nil {
		return c, fmt.Errorf("cell key %q: %v", key, err)
	}
	c.seed, c.sub = seed, sub
	kind, body, _ := strings.Cut(sub, "/")
	switch kind {
	case "xen", "linux":
		suffix := "/plus="
		c.kind = xenCell
		if kind == "linux" {
			suffix, c.kind = "/mcs=", linuxCell
		}
		i := strings.LastIndex(body, suffix)
		if i < 0 {
			return c, fmt.Errorf("cell key %q: no %s", key, suffix)
		}
		if c.flag, err = strconv.ParseBool(body[i+len(suffix):]); err != nil {
			return c, fmt.Errorf("cell key %q: %v", key, err)
		}
		if c.app, c.pol, ok = strings.Cut(body[:i], "/"); !ok {
			return c, fmt.Errorf("cell key %q: no policy", key)
		}
	case "pair":
		c.kind = pairCell
		i := strings.LastIndex(body, "/mode=")
		if i < 0 {
			return c, fmt.Errorf("cell key %q: no mode", key)
		}
		var mode int
		if _, err := fmt.Sscanf(body[i+1:], "mode=%d/swap=%t", &mode, &c.swap); err != nil {
			return c, fmt.Errorf("cell key %q: %v", key, err)
		}
		c.mode = xennuma.PairMode(mode)
		var rest string
		c.app, rest, _ = strings.Cut(body[:i], "=")
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return c, fmt.Errorf("cell key %q: no second VM", key)
		}
		slash := strings.LastIndex(rest[:eq], "/")
		if slash < 0 {
			return c, fmt.Errorf("cell key %q: no second VM", key)
		}
		c.pol, c.appB, c.polB = rest[:slash], rest[slash+1:eq], rest[eq+1:]
	default:
		return c, fmt.Errorf("cell key %q: unknown kind %q", key, kind)
	}
	return c, nil
}

// cellSeed is the suite's per-cell stream derivation (FNV-1a of the
// cell key mixed with the base seed through a SplitMix64 finalizer).
// The replica's bit-for-bit check against the suite pins that the two
// agree.
func cellSeed(base uint64, key string) uint64 {
	if base == 0 {
		base = 1
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	z := h ^ (base * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// span is one timed call at a layer boundary. Spans of one cell share
// its key; Parent is the ID of the cell's root span (0 for the root).
// The backend calls made inside an engine.Run span are too many to
// record one by one, so they are folded into that span's counters.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Cell   string `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	Platform  string `json:"platform,omitempty"` // engine.Run: "xen" or "linux"
	Carrefour bool   `json:"carrefour,omitempty"`
	Epochs    int64  `json:"sim_epochs,omitempty"`
	backendCalls
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// backendCalls counts and times the engine.Backend calls of one run.
type backendCalls struct {
	PlaceN     int64 `json:"place_n,omitempty"`
	PlacePages int64 `json:"place_pages,omitempty"`
	PlaceNs    int64 `json:"place_ns,omitempty"`
	MigrateN   int64 `json:"migrate_n,omitempty"`
	MigrateOK  int64 `json:"migrate_ok,omitempty"`
	MigrateNs  int64 `json:"migrate_ns,omitempty"`
	ReleaseN   int64 `json:"release_n,omitempty"`
	ReleaseNs  int64 `json:"release_ns,omitempty"`
}

// timedBackend wraps a platform backend, timing the three calls that
// move frames. The engine reaches its backend only through the
// interface, so the wrapper does not change what the run computes.
type timedBackend struct {
	engine.Backend
	calls *backendCalls
}

func (b *timedBackend) Place(r *engine.Region, n int, toucher numa.NodeID) (sim.Time, error) {
	t := time.Now()
	c, err := b.Backend.Place(r, n, toucher)
	b.calls.PlaceNs += int64(time.Since(t))
	b.calls.PlaceN++
	b.calls.PlacePages += int64(n)
	return c, err
}

func (b *timedBackend) Migrate(r *engine.Region, i int, to numa.NodeID) bool {
	t := time.Now()
	ok := b.Backend.Migrate(r, i, to)
	b.calls.MigrateNs += int64(time.Since(t))
	b.calls.MigrateN++
	if ok {
		b.calls.MigrateOK++
	}
	return ok
}

func (b *timedBackend) Release(r *engine.Region) sim.Time {
	t := time.Now()
	c := b.Backend.Release(r)
	b.calls.ReleaseNs += int64(time.Since(t))
	b.calls.ReleaseN++
	return c
}

// spanLog keeps every span in memory until the replica ends. An off log
// records nothing, and the replica then runs the backends unwrapped: that
// is the untraced replica the tracing overhead is measured against.
type spanLog struct {
	off    bool
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// open starts a span; the caller fills in any counters and closes it.
func (l *spanLog) open(cell string, parent int64, name string) *span {
	return &span{ID: l.nextID.Add(1), Parent: parent, Cell: cell, Name: name, Start: int64(time.Since(l.origin))}
}

func (l *spanLog) close(s *span) {
	if l.off {
		return
	}
	s.End = int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans = append(l.spans, *s)
	l.mu.Unlock()
}

// call runs fn inside a span named name.
func (l *spanLog) call(cell string, parent int64, name string, fn func()) {
	s := l.open(cell, parent, name)
	fn()
	l.close(s)
}

// machineKey is the pool shape of a single-VM machine, as the facade's
// pool keys it.
type machineKey struct {
	xenplus bool
	mem     int64
}

// replicaMachine is one reusable single-VM world.
type replicaMachine struct {
	hv   *xen.Hypervisor
	back *guest.Backend
	inst *engine.Instance
}

// replica runs cells at one scale, keeping its own shape-keyed warm
// machines as xennuma.Pool does. Pair cells go through the facade with
// a pool of their own.
//
// The replica copies the facade's machine lifecycle: which cells lease a
// pooled machine, how a VM is sized and booted, how a Linux cell is
// built. A change to that lifecycle in the facade has to be made here as
// well; until it is, the replica's acquire count stops matching the
// program's pool counters, and the run warns.
type replica struct {
	scale    int
	topo     *numa.Topology
	pairPool *xennuma.Pool
	log      *spanLog
	acquires atomic.Int64 // single-VM machines leased or built

	mu   sync.Mutex
	free map[machineKey][]*replicaMachine
}

func newReplica(scale int, traced bool) *replica {
	return &replica{
		scale:    scale,
		topo:     numa.AMD48Scaled(scale),
		pairPool: xennuma.NewPool(),
		log:      &spanLog{off: !traced, origin: time.Now()},
		free:     make(map[machineKey][]*replicaMachine),
	}
}

func (r *replica) lease(k machineKey) *replicaMachine {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.free[k]
	if len(l) == 0 {
		return nil
	}
	m := l[len(l)-1]
	r.free[k] = l[:len(l)-1]
	return m
}

func (r *replica) release(k machineKey, m *replicaMachine) {
	r.mu.Lock()
	r.free[k] = append(r.free[k], m)
	r.mu.Unlock()
}

// vmMemBytes sizes a single VM as the facade does: the scaled footprint
// plus a third of headroom plus one huge region, clamped to 90% of what
// dom0 leaves.
func (r *replica) vmMemBytes(prof workload.Profile) int64 {
	foot := int64(prof.FootprintMB * (1 << 20) / float64(r.scale))
	memBytes := foot + foot/3 + int64(2<<30)/int64(r.scale)
	limit := (r.topo.TotalMemory() - int64(2<<30)/int64(r.scale)) * 9 / 10
	return min(memBytes, limit)
}

func (r *replica) newHypervisor(xenplus bool) (*xen.Hypervisor, error) {
	cfg := xen.ScaledConfig(r.scale)
	cfg.IOMMU = xenplus
	dom0 := max(int64(2<<30)/int64(r.scale), 8<<20)
	return xen.New(r.topo, sim.NewEngine(), cfg, dom0)
}

func (r *replica) engineConfig(seed uint64) engine.Config {
	cfg := engine.DefaultConfig(r.topo, r.scale)
	cfg.Seed = seed
	cfg.MaxTime = 300 * sim.Second
	return cfg
}

func carrefourMode(pol policy.Config) carrefour.Mode {
	switch pol.CarrefourVariant {
	case policy.CarrefourMigrationOnly:
		return carrefour.ModeMigrationOnly
	case policy.CarrefourReplicationOnly:
		return carrefour.ModeReplicationOnly
	default:
		return carrefour.ModeFull
	}
}

// run executes one cell inside a root span named "cell.<kind>".
func (r *replica) run(c cellSpec) ([]engine.Result, error) {
	root := r.log.open(c.key, 0, "cell."+c.kind.String())
	defer r.log.close(root)
	seed := cellSeed(c.seed, c.sub)
	switch c.kind {
	case xenCell:
		return r.xen(c, root.ID, seed)
	case linuxCell:
		return r.linux(c, root.ID, seed)
	default:
		return r.pair(c, root.ID, seed)
	}
}

// engineRun runs inst inside an engine.Run span whose counters fold the
// backend calls.
func (r *replica) engineRun(c cellSpec, parent int64, seed uint64, inst *engine.Instance, platform string, b engine.Backend) ([]engine.Result, error) {
	s := r.log.open(c.key, parent, "engine.Run")
	s.Platform, s.Carrefour = platform, inst.Carrefour
	inst.Backend = b
	if !r.log.off {
		inst.Backend = &timedBackend{Backend: b, calls: &s.backendCalls}
	}
	cfg := r.engineConfig(seed)
	res, err := engine.Run(cfg, inst)
	for _, x := range res {
		s.Epochs = max(s.Epochs, int64(x.Completion/cfg.Epoch))
	}
	r.log.close(s)
	return res, err
}

func (r *replica) xen(c cellSpec, parent int64, seed uint64) ([]engine.Result, error) {
	pol, err := xennuma.ParsePolicy(c.pol)
	if err != nil {
		return nil, err
	}
	prof, err := workload.Get(c.app)
	if err != nil {
		return nil, err
	}
	key := machineKey{xenplus: c.flag, mem: r.vmMemBytes(prof)}
	r.acquires.Add(1)
	m := r.lease(key)
	if m != nil {
		r.log.call(c.key, parent, "xen.Reset", func() { err = m.hv.Reset() })
		if err != nil {
			m = nil // dropped, as the facade's pool does
		}
	}
	if m == nil {
		var hv *xen.Hypervisor
		r.log.call(c.key, parent, "xen.New", func() { hv, err = r.newHypervisor(c.flag) })
		if err != nil {
			return nil, err
		}
		m = &replicaMachine{hv: hv}
	}
	boot, err := policy.BootKind(pol.Static)
	if err != nil {
		return nil, err
	}
	const threads = 48
	pins := make([]numa.CPUID, 0, threads)
	for cpu := 0; cpu < threads && cpu < r.topo.NumCPUs(); cpu++ {
		pins = append(pins, numa.CPUID(cpu))
	}
	spec := xen.DomainSpec{Name: prof.Name, VCPUs: len(pins), MemBytes: key.mem, PinCPUs: pins, Boot: boot}
	var dom *xen.Domain
	r.log.call(c.key, parent, "xen.CreateDomain", func() { dom, err = m.hv.CreateDomain(spec) })
	if err != nil {
		return nil, err
	}
	var b *guest.Backend
	r.log.call(c.key, parent, "guest.RebuildBackend", func() {
		b, _, err = guest.RebuildBackend(m.back, m.hv, dom, guest.DefaultQueueConfig(), pol)
	})
	if err != nil {
		return nil, err
	}
	m.back = b
	if m.inst == nil {
		m.inst = &engine.Instance{}
	} else {
		m.inst.Recycle()
	}
	in := m.inst
	in.Prof = prof
	in.NThreads = threads
	in.Carrefour = pol.Carrefour
	in.CarrefourMode = carrefourMode(pol)
	in.MCS = c.flag && prof.UsesPthreadSync
	in.LargePages = false
	res, err := r.engineRun(c, parent, seed, in, "xen", b)
	if err != nil {
		return nil, err
	}
	r.release(key, m)
	return res, nil
}

func (r *replica) linux(c cellSpec, parent int64, seed uint64) ([]engine.Result, error) {
	pol, err := xennuma.ParsePolicy(c.pol)
	if err != nil {
		return nil, err
	}
	prof, err := workload.Get(c.app)
	if err != nil {
		return nil, err
	}
	var b *linux.Backend
	r.log.call(c.key, parent, "linux.New", func() { b, err = linux.New(r.topo, pol) })
	if err != nil {
		return nil, err
	}
	in := &engine.Instance{
		Prof:          prof,
		NThreads:      48,
		Carrefour:     pol.Carrefour,
		CarrefourMode: carrefourMode(pol),
		MCS:           c.flag && prof.UsesPthreadSync,
	}
	return r.engineRun(c, parent, seed, in, "linux", b)
}

func (r *replica) pair(c cellSpec, parent int64, seed uint64) ([]engine.Result, error) {
	pa, err := xennuma.ParsePolicy(c.pol)
	if err != nil {
		return nil, err
	}
	pb, err := xennuma.ParsePolicy(c.polB)
	if err != nil {
		return nil, err
	}
	o := xennuma.Options{Scale: r.scale, Seed: seed, XenPlus: true, Pool: r.pairPool}
	var ra, rb engine.Result
	r.log.call(c.key, parent, "xennuma.RunXenPair", func() {
		ra, rb, err = xennuma.RunXenPair(c.app, pa, c.appB, pb, c.mode, c.swap, o)
	})
	if err != nil {
		return nil, err
	}
	return []engine.Result{ra, rb}, nil
}

// snapshotOf converts results to the suite's serializable snapshot
// form, field for field.
func snapshotOf(key string, res []engine.Result) exp.CellSnapshot {
	c := exp.CellSnapshot{Key: key}
	for _, r := range res {
		s := exp.ResultSnapshot{
			App:              r.App,
			Backend:          r.Backend,
			Completion:       int64(r.Completion),
			TimedOut:         r.TimedOut,
			InitTime:         int64(r.InitTime),
			Imbalance:        r.Imbalance,
			InterconnectLoad: r.InterconnectLoad,
			Locality:         r.Locality,
			Migrated:         r.Migrated,
		}
		if st := r.Stats; st != nil {
			s.RemoteAccesses = st.RemoteAccesses
			s.TotalAccesses = st.TotalAccesses
			s.PagesMigrated = st.PagesMigrated
			s.Hypercalls = st.Hypercalls
			s.HypercallNanos = st.HypercallNanos
			s.IPIOverhead = st.IPIOverhead
			s.IOSeconds = st.IOSeconds
		}
		c.Results = append(c.Results, s)
	}
	return c
}

// replicaRun is the outcome of replaying one snapshot.
type replicaRun struct {
	wall       time.Duration
	cells      int
	acquires   int64 // Xen machines leased or built, single-VM and pair
	mismatches []string
	spans      []span
}

// replay runs every cell of ref on workers goroutines and compares each
// result with its snapshot, byte for byte in the snapshot's JSON form.
// Spans are recorded only when traced.
func replay(ref []exp.CellSnapshot, scale, workers int, traced bool) replicaRun {
	r := newReplica(scale, traced)
	var (
		mu   sync.Mutex
		out  replicaRun
		next atomic.Int64
		wg   sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		out.mismatches = append(out.mismatches, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ref) {
					return
				}
				c, err := parseCellKey(ref[i].Key)
				if err != nil {
					fail("%v", err)
					continue
				}
				res, err := r.run(c)
				if err != nil {
					fail("%s: %v", c.key, err)
					continue
				}
				got, _ := json.Marshal(snapshotOf(c.key, res))
				want, _ := json.Marshal(ref[i])
				if !bytes.Equal(got, want) {
					fail("%s: traced result differs:\n got %s\nwant %s", c.key, got, want)
				}
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cells = len(ref)
	hits, misses := r.pairPool.Stats()
	out.acquires = r.acquires.Load() + int64(hits+misses)
	out.spans = r.log.spans
	return out
}

// layerTotals folds the replica's spans into the per-layer metrics.
type layerTotals struct {
	buildN, resetN                int64
	build, reset, create, rebuild time.Duration
	guestPlace, guestMigrate      time.Duration
	guestRelease                  time.Duration
	guestPages                    int64
	migrateCalls, migrateOK       int64
	linuxBuild, linuxPlace        time.Duration
	linuxMigrate                  time.Duration
	run, self, selfCarrefour      time.Duration
	epochs                        int64
	cellMS                        []float64
	kindMS                        map[string][]float64
}

func foldSpans(spans []span) layerTotals {
	t := layerTotals{kindMS: make(map[string][]float64)}
	for i := range spans {
		s := &spans[i]
		d := s.dur()
		switch s.Name {
		case "xen.New":
			t.buildN++
			t.build += d
		case "xen.Reset":
			t.resetN++
			t.reset += d
		case "xen.CreateDomain":
			t.create += d
		case "guest.RebuildBackend":
			t.rebuild += d
		case "linux.New":
			t.linuxBuild += d
		case "engine.Run":
			backend := time.Duration(s.PlaceNs + s.MigrateNs + s.ReleaseNs)
			t.run += d
			t.self += d - backend
			if s.Carrefour {
				t.selfCarrefour += d - backend
			}
			t.epochs += s.Epochs
			if s.Platform == "linux" {
				t.linuxPlace += time.Duration(s.PlaceNs)
				t.linuxMigrate += time.Duration(s.MigrateNs)
			} else {
				t.guestPlace += time.Duration(s.PlaceNs)
				t.guestPages += s.PlacePages
				t.guestMigrate += time.Duration(s.MigrateNs)
				t.guestRelease += time.Duration(s.ReleaseNs)
				t.migrateCalls += s.MigrateN
				t.migrateOK += s.MigrateOK
			}
		default:
			if kind, ok := strings.CutPrefix(s.Name, "cell."); ok {
				ms := float64(d) / 1e6
				t.cellMS = append(t.cellMS, ms)
				t.kindMS[kind] = append(t.kindMS[kind], ms)
			}
		}
	}
	return t
}

// metrics sets the replica's per-layer metrics in m.
func (t layerTotals) metrics(m map[string]float64) {
	m["xen.build_n"] = float64(t.buildN)
	m["xen.build_s"] = t.build.Seconds()
	m["xen.reset_n"] = float64(t.resetN)
	m["xen.reset_s"] = t.reset.Seconds()
	m["xen.create_domain_s"] = t.create.Seconds()
	m["guest.rebuild_s"] = t.rebuild.Seconds()
	m["guest.place_s"] = t.guestPlace.Seconds()
	m["guest.place_pages"] = float64(t.guestPages)
	m["guest.release_s"] = t.guestRelease.Seconds()
	m["guest.migrate_calls"] = float64(t.migrateCalls)
	m["guest.migrate_ok_ratio"] = ratio(float64(t.migrateOK), float64(t.migrateCalls))
	m["guest.migrate_s"] = t.guestMigrate.Seconds()
	m["linux.build_s"] = t.linuxBuild.Seconds()
	m["linux.place_s"] = t.linuxPlace.Seconds()
	m["linux.migrate_s"] = t.linuxMigrate.Seconds()
	m["engine.run_s"] = t.run.Seconds()
	m["engine.self_s"] = t.self.Seconds()
	m["engine.self_s_carrefour"] = t.selfCarrefour.Seconds()
	m["engine.self_s_plain"] = (t.self - t.selfCarrefour).Seconds()
	m["engine.host_us_per_sim_epoch"] = ratio(float64(t.self)/1e3, float64(t.epochs))
	m["xennuma.cell_p50_ms"] = median(t.cellMS)
	m["xennuma.cell_p99_ms"] = tailQuantile(t.cellMS)
	m["xennuma.xen_cell_ms"] = median(t.kindMS["xen"])
	m["xennuma.linux_cell_ms"] = median(t.kindMS["linux"])
	m["xennuma.pair_cell_ms"] = median(t.kindMS["pair"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
