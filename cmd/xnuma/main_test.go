package main

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig8", "hcall", "cg.C", "streamcluster"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestPolicies(t *testing.T) {
	code, out, _ := runCLI(t, "policies")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"round-1G", "first-touch", "interleave", "bind:<arg>", "least-loaded", "R4K", "lazy", "eager"} {
		if !strings.Contains(out, want) {
			t.Errorf("policies output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNewPolicy(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "run", "swaptions", "least-loaded")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "backend:      xen/least-loaded") {
		t.Errorf("run output missing backend line:\n%s", out)
	}
}

func TestNoArgsUsage(t *testing.T) {
	code, _, errb := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "usage") {
		t.Errorf("usage not printed: %q", errb)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCLI(t, "-nosuchflag", "list"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errb := runCLI(t, "fig99")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown experiment") {
		t.Errorf("stderr: %q", errb)
	}
}

func TestCheapExperiment(t *testing.T) {
	code, out, _ := runCLI(t, "table3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "== table3:") {
		t.Errorf("missing table header: %q", out)
	}
}

func TestMarkdownRender(t *testing.T) {
	code, out, _ := runCLI(t, "-md", "table2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "### table2:") {
		t.Errorf("missing markdown header: %q", out)
	}
}

func TestTopo(t *testing.T) {
	code, out, _ := runCLI(t, "-scale", "256", "topo")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "hop distance matrix") {
		t.Errorf("missing topology dump: %q", out)
	}
}

// TestRunTiny drives the full CLI path through flag parsing, suite
// construction and one real (small-scale) simulation.
func TestRunTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "-parallel", "2", "run", "swaptions", "round-4k")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"app:          swaptions", "completion:", "locality:"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUsage(t *testing.T) {
	if code, _, _ := runCLI(t, "run", "swaptions"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunUnknownApp(t *testing.T) {
	code, _, errb := runCLI(t, "run", "nosuch", "round-4k")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown application") {
		t.Errorf("stderr: %q", errb)
	}
}

func TestRunBadPolicy(t *testing.T) {
	if code, _, _ := runCLI(t, "run", "swaptions", "nosuch-policy"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestSweepTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	// One row per registered policy, including the new ones.
	for _, want := range []string{"== sweep:", "round-1g", "bind:0", "least-loaded", "adaptive", "best:"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepProgress(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "-progress", "sweep", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "== sweep:") {
		t.Errorf("sweep output missing table:\n%s", out)
	}
	// The live reporter's final summary: run counts, throughput and the
	// warm-machine pool's hit/miss split on stderr (interim ticks only
	// appear when the sweep outlives the 2-second sampling interval).
	if !strings.Contains(errb, "new runs") || !strings.Contains(errb, "cells/sec") {
		t.Errorf("progress summary missing from stderr: %q", errb)
	}
	if !strings.Contains(errb, "hits") || !strings.Contains(errb, "misses") {
		t.Errorf("pool stats missing from progress summary: %q", errb)
	}
	// A single-app policy sweep repeats one machine shape, so the pool
	// must have served at least one warm lease.
	if !regexp.MustCompile(`pool [1-9]\d* hits`).MatchString(errb) {
		t.Errorf("pool reported no hits on a repeated-shape sweep: %q", errb)
	}
}

// TestExperimentProgress pins the per-experiment -progress line: run
// count, elapsed time, workers and the pool's hit/miss split of that
// experiment alone. Running the experiment twice makes the second line
// all cache hits, which must report no new runs and no leases.
func TestExperimentProgress(t *testing.T) {
	code, _, errb := runCLI(t, "-scale", "256", "-progress", "fig1", "fig1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	re := regexp.MustCompile(`^xnuma: fig1: (\d+) new runs in \S+ \((\d+) workers, pool (\d+) hits / (\d+) misses\)$`)
	lines := strings.Split(strings.TrimSpace(errb), "\n")
	if len(lines) != 2 {
		t.Fatalf("want two progress lines, got %q", errb)
	}
	var n [2][4]int
	for i, line := range lines {
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("progress line %q does not match %s", line, re)
		}
		for j := range n[i] {
			n[i][j], _ = strconv.Atoi(m[j+1])
		}
	}
	runs, hits, misses := n[0][0], n[0][2], n[0][3]
	if runs == 0 || hits == 0 || hits+misses > runs {
		t.Errorf("first fig1: %d runs, pool %d hits / %d misses; want runs, a warm lease, and at most one lease per run", runs, hits, misses)
	}
	if second := n[1]; second[0] != 0 || second[2] != 0 || second[3] != 0 {
		t.Errorf("cached fig1 reported %d runs, pool %d hits / %d misses; want all zero", second[0], second[2], second[3])
	}
}

func TestSweepBindTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-bind", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"== sweep-bind:", "bind:7", "sensitivity:"} {
		if !strings.Contains(out, want) {
			t.Errorf("bind sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepSeedsTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-seeds", "2", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"== sweep-seeds:", "wins/2", "modal best"} {
		if !strings.Contains(out, want) {
			t.Errorf("seed sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepAppsTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-apps", "swaptions,ep.D")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"Policy sweep for swaptions", "Policy sweep for ep.D"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-app sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepAppsSeedsTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-apps", "swaptions,ep.D", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"stability for swaptions", "stability for ep.D", "wins/2"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-app seed sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepUsage(t *testing.T) {
	if code, _, _ := runCLI(t, "sweep"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "nosuch-app"); code != 2 {
		t.Fatalf("unknown app: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-bind", "-seeds", "3", "swaptions"); code != 2 {
		t.Fatalf("-bind with -seeds: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-apps", "swaptions", "ep.D"); code != 2 {
		t.Fatalf("-apps with positional app: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-bind", "-apps", "swaptions,ep.D"); code != 2 {
		t.Fatalf("-bind with -apps: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-apps", "swaptions,nosuch-app"); code != 2 {
		t.Fatalf("-apps with unknown app: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-apps", ","); code != 2 {
		t.Fatalf("-apps with empty list: exit %d, want 2", code)
	}
}

// TestProfileFlags: -cpuprofile/-memprofile must produce non-empty
// pprof files around a real (tiny) run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := dir+"/cpu.pprof", dir+"/heap.pprof"
	code, _, errb := runCLI(t, "-scale", "256",
		"-cpuprofile", cpu, "-memprofile", heap, "run", "swaptions", "round-4k")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, path := range []string{cpu, heap} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestCPUProfileBadPath(t *testing.T) {
	if code, _, _ := runCLI(t, "-cpuprofile", t.TempDir()+"/no/such/dir/p", "table3"); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestAdviseTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "advise", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"== advise:", "swaptions", "advice gap"} {
		if !strings.Contains(out, want) {
			t.Errorf("advise output missing %q:\n%s", want, out)
		}
	}
}

func TestAdviseUnknownApp(t *testing.T) {
	if code, _, _ := runCLI(t, "advise", "nosuch-app"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
