package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	xennuma "repro"
	"repro/internal/exp"
	"repro/internal/serve"
)

// serveConfig sizes the serve workload.
type serveConfig struct {
	scale     int
	requests  int // per session
	clients   int
	catalogue []serve.Request // in popularity order
	zipf      float64
}

// defaultCatalogue is the served request mix, most popular first: cheap
// reads, single-app sweeps, multi-app sweeps that overlap cached cells,
// seed sweeps, a bind sweep and advice for both platforms (the Linux
// advice runs native cells).
var defaultCatalogue = []serve.Request{
	{Op: "health"},
	{Op: "sweep", App: "swaptions"},
	{Op: "stats"},
	{Op: "sweep", App: "ep.D"},
	{Op: "policies"},
	{Op: "advise", Apps: []string{"ep.D", "swaptions"}},
	{Op: "sweep", Apps: []string{"swaptions", "ep.D"}},
	{Op: "sweep", App: "x264"},
	{Op: "sweep", App: "bodytrack", Markdown: true},
	{Op: "sweep", App: "swaptions", Seeds: 2},
	{Op: "advise", Target: "linux", Apps: []string{"swaptions"}},
	{Op: "sweep", App: "ep.D", Bind: true},
	{Op: "sweep", Apps: []string{"x264", "bodytrack", "ep.D"}},
	{Op: "sweep", App: "cg.C"},
	{Op: "sweep", App: "x264", Seeds: 3},
	{Op: "advise", Apps: []string{"x264", "bodytrack"}},
}

func defaultServeConfig() serveConfig {
	return serveConfig{
		scale:     256,
		requests:  400,
		clients:   2,
		catalogue: defaultCatalogue,
		zipf:      1,
	}
}

func cacheable(r serve.Request) bool { return r.Op == "sweep" || r.Op == "advise" }

// splitmix is a SplitMix64 generator: the request stream must not
// depend on the Go release's math/rand.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// sessionStream returns the catalogue indices of session k's requests,
// a pure function of (catalogue size, zipf, requests, seed, k). Requests
// are drawn with Zipf popularity by catalogue rank; then every entry the
// draw missed replaces a drawn request at a seeded position, so each
// session asks for the whole catalogue and does the same compute work.
func sessionStream(cfg serveConfig, seed uint64, k int) []int {
	n := len(cfg.catalogue)
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), cfg.zipf)
		cum[i] = total
	}
	rng := splitmix(seed*0x9E3779B97F4A7C15 ^ uint64(k+1)*0xD1B54A32D192ED03)
	out := make([]int, cfg.requests)
	seen := make([]bool, n)
	for i := range out {
		u := rng.float() * total
		out[i] = min(sort.SearchFloat64s(cum, u), n-1)
		seen[out[i]] = true
	}
	for e := 0; e < n && len(out) >= n; e++ {
		if seen[e] {
			continue
		}
		// Overwrite a request whose entry is drawn more than once.
		for {
			i := int(rng.next() % uint64(len(out)))
			if count(out, out[i]) > 1 {
				out[i] = e
				break
			}
		}
	}
	return out
}

func count(xs []int, x int) int {
	c := 0
	for _, y := range xs {
		if y == x {
			c++
		}
	}
	return c
}

// sessionStats is what one serve session measured.
type sessionStats struct {
	latMS     []float64
	hitMS     []float64 // reads and replays: requests that needed no computation
	missMS    []float64 // cacheable requests sent before any reply for their entry
	reads     int       // stats, health and policies requests
	misses    int
	replays   int // cacheable requests sent after a reply for their entry
	coalesced int64
	computed  int64
	saveS     float64
	loadS     float64
	saved     int
}

// server is one running sweep server with its HTTP face.
type server struct {
	suite  *exp.Suite
	srv    *serve.Server
	http   *http.Server
	client *http.Client
	url    string
	served chan struct{}
}

// startServer builds a suite and server, listens on loopback and
// returns once the server has answered a health request.
func startServer(cfg config, cacheDir string) (*server, error) {
	s := &server{suite: newSuite(cfg.serve.scale, cfg.workers, cfg.seed), served: make(chan struct{})}
	s.srv = serve.New(s.suite, serve.Config{ModelVersion: xennuma.ModelVersion(), CacheDir: cacheDir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		s.http.Serve(ln)
	}()
	s.url = "http://" + ln.Addr().String() + "/rpc"
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.serve.clients, DisableCompression: true}}
	body, err := s.post([]byte(`{"op":"health"}`))
	if err == nil {
		var resp serve.Response
		if err = json.Unmarshal(body, &resp); err == nil && !resp.OK {
			err = fmt.Errorf("health: %s", body)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) post(line []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(line))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// stop shuts the HTTP face down, waits for its goroutine and for every
// leader computation.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.http.Shutdown(context.Background())
	<-s.served
	s.srv.Drain()
}

func serveSetupProbe(cfg config) (time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(cfg, "")
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	s.stop()
	return d, nil
}

// serveRunner runs serve sessions, holding the reference payload of
// every catalogue entry across them.
type serveRunner struct {
	cfg      config
	sessions int
	ref      map[int][]byte
}

// iter runs one session: a fresh server answers the session's request
// stream from cfg.serve.clients closed-loop clients, persists its cache
// and a second fresh server loads it and must answer every entry with
// the same bytes without computing a cell.
func (r *serveRunner) iter() *iteration {
	cfg := r.cfg
	k := r.sessions
	r.sessions++
	it := &iteration{scale: cfg.serve.scale, session: &sessionStats{}}
	fail := func(format string, args ...any) { it.errs = append(it.errs, fmt.Sprintf(format, args...)) }

	cat := cfg.serve.catalogue
	stream := sessionStream(cfg.serve, cfg.seed, k)
	lines := make([][]byte, len(stream))
	for i, e := range stream {
		req := cat[e]
		req.ID = fmt.Sprintf("%d-%d", k, i)
		lines[i], _ = json.Marshal(req)
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fail("output directory: %v", err)
		return it
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-cache-")
	if err != nil {
		fail("cache dir: %v", err)
		return it
	}
	defer os.RemoveAll(dir)

	srv, err := startServer(cfg, dir)
	if err != nil {
		fail("start server: %v", err)
		it.failed++
		it.attempted++
		return it
	}
	it.suite = srv.suite
	if cfg.trace {
		it.sampler = startSampler(srv.suite)
	}

	n := len(stream)
	lat := make([]time.Duration, n)
	miss := make([]bool, n)
	bodies := make([][]byte, n)
	terrs := make([]error, n)
	answered := make([]atomic.Bool, len(cat))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for c := 0; c < cfg.serve.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				e := stream[i]
				miss[i] = cacheable(cat[e]) && !answered[e].Load()
				t := time.Now()
				bodies[i], terrs[i] = srv.post(lines[i])
				lat[i] = time.Since(t)
				answered[e].Store(true)
			}
		}()
	}
	wg.Wait()
	srv.stop()

	// The session goes on until a restarted server is ready and answers:
	// persist the cache, load it into a fresh server, and ask that server
	// for every cacheable entry once.
	st := it.session
	t := time.Now()
	saved, saveErr := srv.srv.SaveCache()
	st.saveS, st.saved = time.Since(t).Seconds(), saved
	warm := serve.New(newSuite(cfg.serve.scale, cfg.workers, cfg.seed),
		serve.Config{ModelVersion: xennuma.ModelVersion(), CacheDir: dir})
	t = time.Now()
	loaded, loadErr := warm.LoadCache()
	st.loadS = time.Since(t).Seconds()
	warmBodies := make([][]byte, len(cat))
	for e, req := range cat {
		if cacheable(req) {
			line, _ := json.Marshal(req)
			warmBodies[e] = warm.HandleLine(context.Background(), line)
		}
	}
	warm.Drain()
	it.wall, it.cpu = time.Since(start), cpuTime()-cpu0
	if it.sampler != nil {
		it.sampler.finish()
	}

	var failed int64
	first := make(map[int][]byte)
	for i, e := range stream {
		ms := float64(lat[i]) / 1e6
		st.latMS = append(st.latMS, ms)
		switch {
		case !cacheable(cat[e]):
			st.reads++
			st.hitMS = append(st.hitMS, ms)
		case miss[i]:
			st.misses++
			st.missMS = append(st.missMS, ms)
		default:
			st.replays++
			st.hitMS = append(st.hitMS, ms)
		}
		if terrs[i] != nil {
			failed++
			fail("request %s: transport: %v", lines[i], terrs[i])
			continue
		}
		var resp serve.Response
		if err := json.Unmarshal(bodies[i], &resp); err != nil || !resp.OK {
			failed++
			fail("request %s: response %s", lines[i], bodies[i])
			continue
		}
		if cat[e].Op == "stats" {
			checkStats(resp.Result, cfg.workers, fail)
			continue
		}
		if _, ok := first[e]; !ok {
			first[e] = resp.Result
		}
		if r.ref[e] == nil {
			r.ref[e] = resp.Result
		}
		if !bytes.Equal(resp.Result, r.ref[e]) {
			fail("request %s: result differs from the reference for its request:\n got %s\nwant %s",
				lines[i], resp.Result, r.ref[e])
		}
	}
	stats := srv.srv.Stats()
	st.coalesced = stats.Coalesced
	st.computed = srv.suite.CellsComputed()
	it.cells = st.computed
	it.attempted = int64(n) + st.computed
	it.failed = failed + srv.suite.CellErrors()
	it.snap = srv.suite.Snapshot()

	if saveErr != nil {
		fail("save cache: %v", saveErr)
	}
	if loadErr != nil || loaded != saved {
		fail("load cache: %d of %d cells (%v)", loaded, saved, loadErr)
	}
	for e, want := range first {
		if !cacheable(cat[e]) {
			continue
		}
		var resp serve.Response
		if err := json.Unmarshal(warmBodies[e], &resp); err != nil || !resp.OK || !bytes.Equal(resp.Result, want) {
			fail("reloaded server: entry %d answers differently: %s", e, warmBodies[e])
		}
	}
	if c := warm.Stats().CellsComputed; c != 0 {
		fail("reloaded server recomputed %d cells", c)
	}

	// The session digest covers every deterministic entry in catalogue
	// order, plus the suite snapshot.
	h := sha256.New()
	for e := range cat {
		if b, ok := first[e]; ok {
			binary.Write(h, binary.LittleEndian, int64(e))
			h.Write(b)
		}
	}
	b, _ := json.Marshal(it.snap)
	h.Write(b)
	it.digest = hex.EncodeToString(h.Sum(nil))
	return it
}

// checkStats validates a stats payload: its counters depend on how the
// clients interleave, so it is checked for sanity rather than bytes.
func checkStats(raw json.RawMessage, workers int, fail func(string, ...any)) {
	var p struct {
		Stats serve.Stats `json:"stats"`
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		fail("stats: %v", err)
		return
	}
	s := p.Stats
	if s.Workers != workers || s.Failures != 0 || s.CellErrors != 0 || s.ModelVersion != xennuma.ModelVersion() {
		fail("stats: unexpected %+v", s)
	}
}

// serveLayerMetrics sets the serve layer's per-layer metrics from a
// traced run's sessions. The request mix is shown, not assumed: the
// shares of reads, misses and replays are counted per request, and
// serve.overlap_frac is the share of the cells the session's cacheable
// entries would compute one by one on fresh servers that the session
// found already computed.
func serveLayerMetrics(m map[string]float64, cfg config, iters []*iteration) error {
	var hit, miss, coalesced, computed, save, load, saved []float64
	var reads, misses, replays, requests int
	for _, it := range iters {
		s := it.session
		hit = append(hit, s.hitMS...)
		miss = append(miss, s.missMS...)
		reads += s.reads
		misses += s.misses
		replays += s.replays
		requests += len(s.latMS)
		coalesced = append(coalesced, float64(s.coalesced))
		computed = append(computed, float64(s.computed))
		save = append(save, s.saveS)
		load = append(load, s.loadS)
		saved = append(saved, float64(s.saved))
	}
	solo, err := soloCells(cfg)
	if err != nil {
		return err
	}
	m["serve.hit_p50_ms"] = median(hit)
	m["serve.miss_p50_ms"] = median(miss)
	m["serve.replay_ratio"] = ratio(float64(replays), float64(replays+misses))
	m["serve.read_frac"] = ratio(float64(reads), float64(requests))
	m["serve.miss_frac"] = ratio(float64(misses), float64(requests))
	m["serve.overlap_frac"] = 1 - ratio(median(computed), float64(solo))
	m["serve.coalesced"] = median(coalesced)
	m["serve.cells_computed"] = median(computed)
	m["serve.cache_save_s"] = median(save)
	m["serve.cache_load_s"] = median(load)
	m["serve.cache_cells"] = median(saved)
	return nil
}

// soloCells is the number of cells the catalogue's cacheable entries
// compute when each is sent alone to a fresh server. Every session asks
// for every entry, so this is what a session would compute if no two
// entries shared a cell.
func soloCells(cfg config) (int64, error) {
	var total int64
	for _, req := range cfg.serve.catalogue {
		if !cacheable(req) {
			continue
		}
		suite := newSuite(cfg.serve.scale, cfg.workers, cfg.seed)
		srv := serve.New(suite, serve.Config{ModelVersion: xennuma.ModelVersion()})
		line, _ := json.Marshal(req)
		var resp serve.Response
		if err := json.Unmarshal(srv.HandleLine(context.Background(), line), &resp); err != nil || !resp.OK {
			return 0, fmt.Errorf("solo request %s failed", line)
		}
		srv.Drain()
		total += suite.CellsComputed()
	}
	return total, nil
}
