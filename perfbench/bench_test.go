package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	xennuma "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

// tinyConfig shrinks a workload to a couple of seconds while keeping
// every cell kind it exercises at full size.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload, 3, 0, trace)
	cfg.paperIDs = []string{"fig1", "fig8"} // Xen, native Linux and pair cells
	cfg.paperScale = 256
	cfg.sweepApps = []string{"swaptions"}
	cfg.sweepSeeds = 2
	cfg.serve.requests = 40
	cfg.serve.catalogue = []serve.Request{
		{Op: "health"},
		{Op: "sweep", App: "swaptions"},
		{Op: "stats"},
		{Op: "policies"},
		{Op: "advise", Target: "linux", Apps: []string{"swaptions"}},
		{Op: "sweep", App: "ep.D", Bind: true},
	}
	cfg.outDir = t.TempDir()
	cfg.minIters = 1
	cfg.setupReps = 2
	cfg.checkDigests = false
	return cfg
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, workloads)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the result line carries exactly the metrics BENCHMARK.json
// names, with their units, and that the run is correct.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				rec, err := run(tinyConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("run not correct: failed %d of %d, errors %v", rec.Failed, rec.Attempted, rec.Errors)
				}
				want := bj.EndToEnd
				if trace {
					want = bj.PerLayer
				}
				res := resultLine(rec)
				line, _ := json.Marshal(res)
				var parsed map[string]any
				if err := json.Unmarshal(line, &parsed); err != nil {
					t.Fatal(err)
				}
				keys := sortedKeys(parsed)
				if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
					t.Errorf("result keys %v", keys)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
					}
				}
				if trace {
					// The replica must follow the program's machine
					// lifecycle: one lease per Xen cell, as the pool counts.
					if got, want := rec.Metrics["trace.replica_acquires"], rec.Metrics["xennuma.pool_acquires"]; got != want || got == 0 {
						t.Errorf("replica acquired %v machines, the program %v", got, want)
					}
				}
				if !trace {
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

func TestServeStreamIsPureFunctionOfSeed(t *testing.T) {
	cfg := defaultServeConfig()
	a := sessionStream(cfg, 7, 0)
	if b := sessionStream(cfg, 7, 0); !slices.Equal(a, b) {
		t.Fatal("same seed and session gave different streams")
	}
	if slices.Equal(a, sessionStream(cfg, 8, 0)) {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	if slices.Equal(a, sessionStream(cfg, 7, 1)) {
		t.Error("sessions 0 and 1 gave the same stream")
	}
	if len(a) != cfg.requests {
		t.Errorf("stream has %d requests, want %d", len(a), cfg.requests)
	}
	counts := make([]int, len(cfg.catalogue))
	for _, e := range a {
		counts[e]++
	}
	for e, c := range counts {
		if c == 0 {
			t.Errorf("catalogue entry %d (%+v) never requested", e, cfg.catalogue[e])
		}
	}
	if counts[0] <= counts[len(counts)-1] {
		t.Errorf("popularity not skewed: first entry %d requests, last %d", counts[0], counts[len(counts)-1])
	}
}

func TestParseCellKey(t *testing.T) {
	c, err := parseCellKey("seed=4/pair/cg.C=round-4k/carrefour/sp.C=first-touch/mode=1/swap=true")
	if err != nil {
		t.Fatal(err)
	}
	want := cellSpec{
		key: c.key, seed: 4, sub: "pair/cg.C=round-4k/carrefour/sp.C=first-touch/mode=1/swap=true",
		kind: pairCell, app: "cg.C", pol: "round-4k/carrefour", appB: "sp.C", polB: "first-touch",
		mode: xennuma.Consolidated, swap: true,
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("got %+v\nwant %+v", c, want)
	}
	c, err = parseCellKey("seed=9/xen/wc/first-touch/carrefour/plus=false")
	if err != nil || c.kind != xenCell || c.app != "wc" || c.pol != "first-touch/carrefour" || c.flag {
		t.Errorf("xen key: %+v, %v", c, err)
	}
	for _, bad := range []string{"xen/wc/r/plus=true", "seed=1/vm/wc", "seed=1/xen/wc/plus=maybe"} {
		if _, err := parseCellKey(bad); err == nil {
			t.Errorf("parseCellKey(%q) accepted", bad)
		}
	}
}

// TestReplicaEqualsFacade pins the traced replica to the facade on Xen
// cells built cold and leased warm, and on native Linux cells.
func TestReplicaEqualsFacade(t *testing.T) {
	const scale = 256
	r := newReplica(scale, true)
	keys := []string{
		"seed=2/xen/swaptions/round-4k/plus=true",              // cold build
		"seed=2/xen/swaptions/first-touch/carrefour/plus=true", // same shape: warm reset
		"seed=5/xen/ep.D/round-1g/plus=false",
		"seed=2/linux/swaptions/first-touch/mcs=true",
		"seed=3/linux/streamcluster/round-4k/carrefour/mcs=true",
	}
	for _, key := range keys {
		c, err := parseCellKey(key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.run(c)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		pol := xennuma.MustPolicy(c.pol)
		o := xennuma.Options{Scale: scale, Seed: cellSeed(c.seed, c.sub)}
		var want xennuma.Result
		if c.kind == linuxCell {
			o.MCS = c.flag
			want, err = xennuma.RunLinux(c.app, pol, o)
		} else {
			o.XenPlus = c.flag
			want, err = xennuma.RunXen(c.app, pol, o)
		}
		if err != nil {
			t.Fatalf("%s: facade: %v", key, err)
		}
		g, _ := json.Marshal(snapshotOf(key, got))
		w, _ := json.Marshal(snapshotOf(key, []xennuma.Result{want}))
		if !bytes.Equal(g, w) {
			t.Errorf("%s:\nreplica %s\nfacade  %s", key, g, w)
		}
	}
	names := map[string]int{}
	for _, s := range r.log.spans {
		names[s.Name]++
	}
	if names["xen.New"] != 2 || names["xen.Reset"] != 1 || names["linux.New"] != 2 || names["engine.Run"] != 5 {
		t.Errorf("span counts %v: want 2 cold builds, 1 warm reset, 2 Linux builds, 5 engine runs", names)
	}
}

// TestFaultsCountAsFailures arms injected faults on tiny runs: each one
// fired must show up in failed and failed_frac, and must fail the
// correctness check rather than pass as a slow result.
func TestFaultsCountAsFailures(t *testing.T) {
	t.Cleanup(func() { faultinject.Install(nil) })
	for _, tc := range []struct{ workload, plan string }{
		{"paper", "exp.cell:hit=3:action=error"},
		{"serve", "serve.request:hit=5:action=error"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			plan, err := faultinject.Parse(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Install(plan)
			defer faultinject.Install(nil)
			rec, err := run(tinyConfig(t, tc.workload, false))
			if err != nil {
				t.Fatal(err)
			}
			fired := int64(plan.TotalFired())
			if fired == 0 {
				t.Fatal("fault never fired")
			}
			if rec.Failed != fired {
				t.Errorf("failed = %d, want the %d injected faults", rec.Failed, fired)
			}
			if want := float64(fired) / float64(rec.Attempted); rec.FailedFrac != want {
				t.Errorf("failed_frac = %v, want %v", rec.FailedFrac, want)
			}
			if rec.Correct || len(rec.Errors) == 0 {
				t.Errorf("injected failure not reported: correct %v, errors %v", rec.Correct, rec.Errors)
			}
			if resultLine(rec).Correct {
				t.Error("result line reports correct")
			}
		})
	}
}

// TestDigestMismatchFailsRun checks that output differing from the
// recorded digest fails the run instead of passing as a timing.
func TestDigestMismatchFailsRun(t *testing.T) {
	saved := digestsJSON
	t.Cleanup(func() { digestsJSON = saved })
	digestsJSON = []byte(`{"seed-sweep/3": "0000"}`)
	cfg := tinyConfig(t, "seed-sweep", false)
	cfg.checkDigests = true
	rec, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || len(rec.Errors) != 1 || !strings.Contains(rec.Errors[0], "recorded 0000") {
		t.Errorf("correct %v, errors %v", rec.Correct, rec.Errors)
	}
}

func TestDigestsRecordedForDefaultAndHeldOutSeed(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 1009} {
			if d, ok := recordedDigest(w, seed); !ok || len(d) != 64 {
				t.Errorf("%s/%d: no recorded digest", w, seed)
			}
		}
	}
}

func TestReportKeepsHostsApart(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/runs.jsonl"
	var buf bytes.Buffer
	for i, fp := range []Fingerprint{
		{CPU: "a", NProc: 2, Workers: 2, Commit: "c1"},
		{CPU: "a", NProc: 2, Workers: 2, Commit: "c2"},
		{CPU: "b", NProc: 8, Workers: 2, Commit: "c3"},
	} {
		b, _ := json.Marshal(record{Workload: "paper", Fingerprint: fp, Metrics: map[string]float64{"wall_s": float64(10 + i)}})
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := report([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	line := ""
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "wall_s") {
			line = l
		}
	}
	// c2 compares with c1 on host a (+10%); host b's column has no ratio.
	if !strings.Contains(line, "[1] 11 (n=1) +10.0%") || strings.Count(line, "%") != 1 {
		t.Errorf("report line %q", line)
	}
}
