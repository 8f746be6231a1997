// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload — "paper" (every experiment of xnuma all),
// "seed-sweep" (a multi-seed policy sweep) or "serve" (a resident sweep
// server under closed-loop HTTP clients) — for a fixed measuring time,
// checks every output, and prints one JSON result line:
//
//	perfbench --workload paper --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs once untraced, then every cell it
// computed is replayed through the layers' public functions with a span
// around each call, and the result carries the per-layer metrics. See
// README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	_ "embed"

	xennuma "repro"
	"repro/internal/exp"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"cells_per_s", "1/s"},
	{"max_rss_mb", "MB"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
}

// perLayer are the traced run's metrics, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"xen.build_n", "count"},
	{"xen.build_s", "s"},
	{"xen.reset_n", "count"},
	{"xen.reset_s", "s"},
	{"xen.create_domain_s", "s"},
	{"guest.rebuild_s", "s"},
	{"guest.place_s", "s"},
	{"guest.place_pages", "count"},
	{"guest.release_s", "s"},
	{"linux.build_s", "s"},
	{"linux.place_s", "s"},
	{"linux.migrate_s", "s"},
	{"xennuma.pool_hit_ratio", "ratio"},
	{"xennuma.pool_misses", "count"},
	{"xennuma.pool_drops", "count"},
	{"engine.run_s", "s"},
	{"engine.self_s", "s"},
	{"engine.self_s_carrefour", "s"},
	{"engine.self_s_plain", "s"},
	{"engine.host_us_per_sim_epoch", "us"},
	{"engine.sim_s", "s"},
	{"guest.migrate_calls", "count"},
	{"guest.migrate_ok_ratio", "ratio"},
	{"guest.migrate_s", "s"},
	{"xennuma.cell_p50_ms", "ms"},
	{"xennuma.cell_p99_ms", "ms"},
	{"xennuma.xen_cell_ms", "ms"},
	{"xennuma.linux_cell_ms", "ms"},
	{"xennuma.pair_cell_ms", "ms"},
	{"exp.cells", "count"},
	{"exp.waves", "count"},
	{"exp.join_s", "s"},
	{"exp.worker_idle_frac", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.replay_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.cells_computed", "count"},
	{"serve.cache_save_s", "s"},
	{"serve.cache_load_s", "s"},
	{"serve.cache_cells", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"failed_frac", "ratio"},
	{"serve.read_frac", "ratio"},
	{"serve.miss_frac", "ratio"},
	{"serve.overlap_frac", "ratio"},
	{"xennuma.pool_acquires", "count"},
	{"trace.replica_acquires", "count"},
	{"trace.replica_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// digests are the recorded output digests per "workload/seed" at the
// default sizes: the default seed 1 and the held-out seed 1009, which
// was not used while the benchmark was tuned.
//
//go:embed digests.json
var digestsJSON []byte

// config is one benchmark run. Tests shrink the sizes.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int

	paperIDs   []string
	paperScale int
	sweepApps  []string
	sweepSeeds int
	sweepScale int
	serve      serveConfig

	outDir       string // spans and the serve workload's persisted caches
	minIters     int    // untraced iterations per position at least (determinism check)
	setupReps    int    // set-ups timed before the first iteration
	checkDigests bool   // compare with digests.json (default sizes only)
}

var workloads = []string{"paper", "seed-sweep", "serve"}

func defaultConfig(workload string, seed uint64, seconds float64, trace bool) config {
	return config{
		workload:     workload,
		seed:         seed,
		seconds:      seconds,
		trace:        trace,
		workers:      min(2, runtime.NumCPU()),
		paperIDs:     exp.IDs(),
		paperScale:   64,
		sweepApps:    exp.Apps(),
		sweepSeeds:   3,
		sweepScale:   256,
		serve:        defaultServeConfig(),
		outDir:       ".bench_build",
		minIters:     2,
		setupReps:    51,
		checkDigests: true,
	}
}

// iteration is one unit of work a user waits for: one xnuma all, one
// seed of the seed sweep, or one serve session.
type iteration struct {
	pos       int // position in its round: the seed-sweep seed offset, else 0
	wall      time.Duration
	cpu       time.Duration
	cells     int64
	attempted int64
	failed    int64
	digest    string
	errs      []string

	scale   int
	suite   *exp.Suite
	snap    []exp.CellSnapshot
	sampler *schedSampler
	session *sessionStats // serve only
}

func newSuite(scale, workers int, seed uint64) *exp.Suite {
	s := exp.NewSuiteParallel(scale, workers)
	s.Opt.Seed = seed
	return s
}

// measureSuite runs fn against s, recording wall and CPU time, the
// suite's cell counters, its snapshot and the digest of what fn wrote
// plus the snapshot. A panic (a failed cell read by an experiment) is an
// error of the iteration.
func (it *iteration) measureSuite(cfg config, s *exp.Suite, fn func(w io.Writer)) {
	it.suite = s
	if cfg.trace {
		it.sampler = startSampler(s)
	}
	h := sha256.New()
	cpu0, t0 := cpuTime(), time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				it.errs = append(it.errs, fmt.Sprint(p))
			}
		}()
		fn(h)
	}()
	it.wall, it.cpu = time.Since(t0), cpuTime()-cpu0
	if it.sampler != nil {
		it.sampler.finish()
	}
	it.cells = s.CellsComputed()
	it.attempted += it.cells
	it.failed += s.CellErrors()
	it.snap = s.Snapshot()
	b, _ := json.Marshal(it.snap)
	h.Write(b)
	it.digest = hex.EncodeToString(h.Sum(nil))
}

func paperIter(cfg config) *iteration {
	it := &iteration{scale: cfg.paperScale}
	s := newSuite(cfg.paperScale, cfg.workers, cfg.seed)
	it.measureSuite(cfg, s, func(w io.Writer) {
		for _, id := range cfg.paperIDs {
			io.WriteString(w, exp.ByID(id)(s).Render())
		}
	})
	return it
}

// sweepRunner times the seed sweep one seed at a time, so a run takes
// the median of several short iterations rather than of two long ones.
// Iterations cycle through the seeds --seed, --seed+1, ...; each is a
// fresh suite sweeping every app for its one seed. The iterations of one
// round share a machine pool, as the seeds of one multi-seed sweep do,
// so only the round's first seed pays the cold builds.
type sweepRunner struct {
	cfg  config
	n    int
	pool *xennuma.Pool
}

func (r *sweepRunner) iter() *iteration {
	cfg := r.cfg
	pos := r.n % cfg.sweepSeeds
	r.n++
	if pos == 0 {
		r.pool = xennuma.NewPool()
	}
	it := &iteration{scale: cfg.sweepScale, pos: pos}
	s := newSuite(cfg.sweepScale, cfg.workers, cfg.seed+uint64(pos))
	s.Opt.Pool = r.pool
	it.measureSuite(cfg, s, func(w io.Writer) {
		for _, t := range exp.SeedSweepApps(s, cfg.sweepApps, 1) {
			io.WriteString(w, t.Render())
		}
	})
	return it
}

const setupSpacing = 20 * time.Millisecond

// setupProbe times a throwaway set-up of the workload's ready state.
func setupProbe(cfg config) (time.Duration, error) {
	switch cfg.workload {
	case "serve":
		return serveSetupProbe(cfg)
	}
	scale := cfg.sweepScale
	if cfg.workload == "paper" {
		scale = cfg.paperScale
	}
	// A suite is ready in about a microsecond: time a batch so the
	// clock's resolution does not dominate.
	const batch = 200
	t0 := time.Now()
	for i := 0; i < batch; i++ {
		newSuite(scale, cfg.workers, cfg.seed)
	}
	return time.Since(t0) / batch, nil
}

// result is the benchmark's final line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full, fingerprinted account of one run; the result
// line is its gateable subset.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	Iterations  int                `json:"iterations"`
	IterWalls   []float64          `json:"iter_wall_s"`
	Digest      string             `json:"digest"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailedFrac  float64            `json:"failed_frac"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
}

// run executes one benchmark run and returns its record.
func run(cfg config) (record, error) {
	rec := record{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Trace:       cfg.trace,
		Seconds:     cfg.seconds,
		Fingerprint: hostFingerprint(cfg.workers),
		Metrics:     map[string]float64{},
	}
	// A round is the workload once through; its iterations sit at
	// positions 0..positions-1. Only the seed sweep has more than one.
	var iterate func() *iteration
	positions := 1
	switch cfg.workload {
	case "paper":
		iterate = func() *iteration { return paperIter(cfg) }
	case "seed-sweep":
		iterate = (&sweepRunner{cfg: cfg}).iter
		positions = cfg.sweepSeeds
	case "serve":
		iterate = (&serveRunner{cfg: cfg, ref: map[int][]byte{}}).iter
	default:
		return rec, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloads, ", "))
	}

	// Each set-up starts from a collected heap, so that no garbage
	// collection lands inside the timing. The set-ups are spaced over
	// about a second: one takes well under a millisecond, and the median
	// of a burst would sample the host's speed at a single moment.
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		time.Sleep(setupSpacing)
		runtime.GC()
		d, err := setupProbe(cfg)
		if err != nil {
			return rec, err
		}
		setups = append(setups, d.Seconds())
	}

	// Iterate in whole rounds until the next iteration would overrun the
	// measuring time; the traced run measures the untraced reference in
	// half of it and leaves the rest to the replica.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minIters := cfg.minIters * positions
	if cfg.trace {
		budget /= 2
		minIters = positions
	}
	var iters []*iteration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(iters) < minIters || len(iters)%positions != 0 || time.Since(start)+iters[len(iters)-1].wall <= budget {
		// Each iteration starts from a heap returned to the OS, holding
		// no earlier suite, so the peak RSS is one iteration's. Only the
		// last iteration keeps its suite and the last round its
		// snapshots, for the traced replica.
		if n := len(iters); n > 0 {
			iters[n-1].suite = nil
			if n%positions == 0 {
				for _, it := range iters[n-positions:] {
					it.snap = nil
				}
			}
		}
		debug.FreeOSMemory()
		iters = append(iters, iterate())
	}
	runtime.ReadMemStats(&ms1)

	var errs []string
	for i, it := range iters {
		rec.Attempted += it.attempted
		rec.Failed += it.failed
		for _, e := range it.errs {
			errs = append(errs, fmt.Sprintf("iteration %d: %s", i, e))
		}
		if want := iters[it.pos].digest; it.digest != want {
			errs = append(errs, fmt.Sprintf("iteration %d: output digest %s differs from iteration %d's %s",
				i, it.digest, it.pos, want))
		}
		rec.IterWalls = append(rec.IterWalls, it.wall.Seconds())
	}
	rec.Iterations = len(iters)
	rec.Digest = iters[0].digest
	if positions > 1 {
		var firsts []string
		for _, it := range iters[:positions] {
			firsts = append(firsts, it.digest)
		}
		h := sha256.Sum256([]byte(strings.Join(firsts, "\n")))
		rec.Digest = hex.EncodeToString(h[:])
	}
	if cfg.checkDigests {
		if want, ok := recordedDigest(cfg.workload, cfg.seed); ok && want != rec.Digest {
			errs = append(errs, fmt.Sprintf("output digest %s differs from the recorded %s", rec.Digest, want))
		}
	}

	m := rec.Metrics
	if cfg.trace {
		round := iters[len(iters)-positions:]
		last := round[len(round)-1]
		if last.suite == nil {
			// The iteration failed before its suite existed; its error
			// is already recorded and there is nothing to replay.
			rec.Errors = errs
			return rec, nil
		}
		var ref []exp.CellSnapshot
		for _, it := range round {
			ref = append(ref, it.snap...)
		}
		// The replica runs twice, untraced and traced, so the tracing
		// overhead is measured on the same code path.
		plain := replay(ref, last.scale, cfg.workers, false)
		rep := replay(ref, last.scale, cfg.workers, true)
		errs = append(errs, plain.mismatches...)
		errs = append(errs, rep.mismatches...)
		rec.Attempted += int64(plain.cells + rep.cells)
		foldSpans(rep.spans).metrics(m)
		suiteMetrics(m, last, round)
		n := float64(len(iters))
		m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
		m["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
		m["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
		m["trace.replica_acquires"] = float64(rep.acquires)
		m["trace.replica_s"] = rep.wall.Seconds()
		m["trace.overhead_frac"] = ratio(rep.wall.Seconds(), plain.wall.Seconds()) - 1
		if got, want := rep.acquires, int64(m["xennuma.pool_acquires"]); got != want {
			fmt.Fprintf(os.Stderr, "perfbench: warning: the replica leased %d Xen machines, the program %d; "+
				"the replica no longer follows the facade's machine lifecycle, so the xen.* split is stale\n", got, want)
		}
		if cfg.workload == "serve" {
			if err := serveLayerMetrics(m, cfg, iters); err != nil {
				errs = append(errs, err.Error())
			}
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return rec, err
		}
	} else {
		// wall_s and cpu_s are the time of one round: the sum over its
		// positions of each position's median iteration.
		byPos := make([][]*iteration, positions)
		for _, it := range iters {
			byPos[it.pos] = append(byPos[it.pos], it)
		}
		var wall, cpu, slowest float64
		var cells int64
		for _, its := range byPos {
			var walls, cpus []float64
			for _, it := range its {
				walls = append(walls, it.wall.Seconds())
				cpus = append(cpus, it.cpu.Seconds())
			}
			wall += median(walls)
			cpu += median(cpus)
			slowest += quantile(walls, 1)
			cells += its[0].cells
		}
		m["setup_s"] = median(setups)
		m["wall_s"] = wall
		m["cpu_s"] = cpu
		m["cells_per_s"] = ratio(float64(cells), wall)
		m["max_rss_mb"] = maxRSSMB()
		if cfg.workload == "serve" {
			var lat []float64
			for _, it := range iters {
				lat = append(lat, it.session.latMS...)
			}
			m["req_p50_ms"] = median(lat)
			m["req_p99_ms"] = tailQuantile(lat)
		} else {
			// For paper and seed-sweep the one request is the whole job;
			// its "p99" is the slowest round seen.
			m["req_p50_ms"] = wall * 1e3
			m["req_p99_ms"] = slowest * 1e3
		}
	}
	if rec.Failed > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d operations failed", rec.Failed, rec.Attempted))
	}
	rec.FailedFrac = ratio(float64(rec.Failed), float64(rec.Attempted))
	if cfg.trace {
		m["failed_frac"] = rec.FailedFrac
	}
	rec.Errors = errs
	rec.Correct = len(errs) == 0 && rec.Attempted > 0
	return rec, nil
}

// suiteMetrics sets the per-layer metrics the program counts itself:
// the machine pool and cells over the round, the scheduler of its last
// iteration.
func suiteMetrics(m map[string]float64, last *iteration, round []*iteration) {
	hits, misses := last.suite.PoolStats()
	m["xennuma.pool_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["xennuma.pool_misses"] = float64(misses)
	m["xennuma.pool_acquires"] = float64(hits + misses)
	m["xennuma.pool_drops"] = float64(last.suite.PoolResetDrops())
	if sp := last.sampler; sp != nil {
		m["exp.waves"] = float64(sp.waves)
		m["exp.join_s"] = sp.join.Seconds()
		m["exp.worker_idle_frac"] = sp.idleFrac()
	}
	var cells int64
	var sim float64
	for _, it := range round {
		cells += it.cells
		for _, c := range it.snap {
			for _, r := range c.Results {
				sim += float64(r.Completion) / 1e9
			}
		}
	}
	m["exp.cells"] = float64(cells)
	m["engine.sim_s"] = sim
}

func recordedDigest(workload string, seed uint64) (string, bool) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return "", false
	}
	want, ok := d[fmt.Sprintf("%s/%d", workload, seed)]
	return want, ok
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// resultLine is the gateable subset of rec: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func resultLine(rec record) result {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rec.Metrics[d.name], Unit: d.unit}
	}
	return res
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(report(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measuring time")
	trace := fs.Int("trace", 0, "1 replays the run's cells with per-layer spans")
	recordPath := fs.String("record", "", "append the fingerprinted record to this JSON-lines file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seed must be positive")
		os.Exit(2)
	}
	cfg := defaultConfig(*workload, *seed, *seconds, *trace == 1)
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", e)
	}
	rb, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", rb)
	if *recordPath != "" {
		if err := appendRecord(*recordPath, rb); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	out, _ := json.Marshal(resultLine(rec))
	fmt.Println(string(out))
	if !rec.Correct {
		os.Exit(1)
	}
}

func appendRecord(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
