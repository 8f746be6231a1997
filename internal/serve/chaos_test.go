package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// The chaos harness: randomized-but-seeded fault schedules replayed
// against a live server. The invariant under ANY schedule is the
// robustness contract this PR hardens the stack to meet:
//
//  1. every response is either a structured protocol error or
//     byte-identical to the fault-free reference — never garbage,
//     never a dropped request;
//  2. the process survives (panic actions included);
//  3. after disarming, a warm retry of every request matches the
//     reference exactly — no fault leaves poison behind;
//  4. the degradation counters account for every injected fault:
//     pool drops == fired(pool.reset), suite cell errors ==
//     fired(exp.cell).
//
// Schedules derive from a fixed seed via splitmix64 (no math/rand —
// the detrand analyzer's discipline extends to the chaos tests, and a
// failing schedule is replayable from its round number alone).

// splitmix64 is the test's seeded PRNG.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// chaosSite describes one injectable site and the actions a schedule
// may arm there. Delay is excluded where it would change no behaviour
// worth asserting and included at the request boundary.
type chaosSite struct {
	name    string
	actions []string
}

var chaosSites = []chaosSite{
	{"pool.reset", []string{faultinject.ActionError, faultinject.ActionPanic}},
	{"exp.cell", []string{faultinject.ActionError, faultinject.ActionPanic}},
	{"serve.request", []string{faultinject.ActionError, faultinject.ActionPanic, faultinject.ActionDelay}},
}

// chaosPlan draws one random-but-deterministic fault schedule: up to
// maxRules rules across the sites, hits in [1, maxHit].
func chaosPlan(t *testing.T, rng *splitmix64) *faultinject.Plan {
	t.Helper()
	const maxRules, maxHit = 6, 15
	used := map[string]bool{}
	var rules []string
	for n := 1 + rng.intn(maxRules); len(rules) < n; {
		site := chaosSites[rng.intn(len(chaosSites))]
		hit := 1 + rng.intn(maxHit)
		key := fmt.Sprintf("%s:%d", site.name, hit)
		if used[key] {
			continue
		}
		used[key] = true
		action := site.actions[rng.intn(len(site.actions))]
		rule := fmt.Sprintf("%s:hit=%d:action=%s", site.name, hit, action)
		if action == faultinject.ActionDelay {
			rule += fmt.Sprintf(":delay=%dms", 1+rng.intn(5))
		}
		rules = append(rules, rule)
	}
	plan, err := faultinject.Parse(strings.Join(rules, ","))
	if err != nil {
		t.Fatalf("generated invalid plan %v: %v", rules, err)
	}
	return plan
}

// chaosCodes is the full error taxonomy a chaos response may carry.
var chaosCodes = map[string]bool{
	"parse": true, "bad_request": true, "overflow": true,
	"timeout": true, "unavailable": true, "internal": true,
}

// TestChaosSchedules drives seeded fault schedules through concurrent
// request volleys and checks the robustness contract after each round
// and after disarming.
func TestChaosSchedules(t *testing.T) {
	apps := []string{"swaptions", "streamcluster", "fluidanimate"}
	var lines []string
	for _, app := range apps {
		lines = append(lines,
			fmt.Sprintf(`{"id":"s-%s","op":"sweep","app":"%s"}`, app, app),
			fmt.Sprintf(`{"id":"a-%s","op":"advise","app":"%s"}`, app, app),
		)
	}
	lines = append(lines, `{"id":"p","op":"policies"}`)

	// Per-round exclusive requests: a fresh seed sweep each round, so
	// every round executes new simulation cells (and so leases, resets
	// and cell computations for its schedule to fault) instead of
	// serving round 0's warm cache.
	const rounds = 3
	extras := make([]string, rounds)
	for r := range extras {
		extras[r] = fmt.Sprintf(`{"id":"x%d","op":"sweep","app":"swaptions","seeds":%d}`, r, r+2)
	}

	// Fault-free reference bytes for every line, from a clean server.
	faultinject.Install(nil)
	refSrv, _ := newTestServer(t, Config{})
	ref := make(map[string][]byte, len(lines)+rounds)
	for _, l := range append(append([]string{}, lines...), extras...) {
		ref[l] = refSrv.HandleLine(context.Background(), []byte(l))
	}
	refSrv.Drain()

	srv, suite := newTestServer(t, Config{})
	rng := new(splitmix64)
	*rng = 0xC0FFEE
	fired := map[string]uint64{}

	for round := 0; round < rounds; round++ {
		plan := chaosPlan(t, rng)
		faultinject.Install(plan)
		t.Logf("round %d: %s", round, plan.Spec())

		// One concurrent volley: the shared lines plus the round's
		// fresh seed sweep, ×2 (to exercise coalescing under faults)
		// in schedule-drawn order.
		base := append(append([]string{}, lines...), extras[round])
		volley := append(append([]string{}, base...), base...)
		for i := range volley {
			j := rng.intn(i + 1)
			volley[i], volley[j] = volley[j], volley[i]
		}
		responses := make([][]byte, len(volley))
		var wg sync.WaitGroup
		for i, l := range volley {
			wg.Add(1)
			go func(i int, l string) {
				defer wg.Done()
				responses[i] = srv.HandleLine(context.Background(), []byte(l))
			}(i, l)
		}
		wg.Wait()
		srv.Drain()

		for i, raw := range responses {
			var resp Response
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("round %d: response %d is not JSON: %v\n%s", round, i, err, raw)
			}
			switch {
			case resp.OK:
				if !bytes.Equal(raw, ref[volley[i]]) {
					t.Fatalf("round %d: ok response diverged from fault-free reference for %s:\n%s\nvs\n%s",
						round, volley[i], raw, ref[volley[i]])
				}
			case resp.Error == nil || !chaosCodes[resp.Error.Code]:
				t.Fatalf("round %d: response neither ok nor structured: %s", round, raw)
			}
		}
		faultinject.Install(nil)
		for _, s := range plan.SiteNames() {
			fired[s] += plan.Fired(s)
		}
	}

	// Every injected fault is accounted for by exactly one degradation
	// counter.
	if drops := suite.PoolResetDrops(); drops != fired["pool.reset"] {
		t.Errorf("pool drops = %d, want fired(pool.reset) = %d", drops, fired["pool.reset"])
	}
	if errs := suite.CellErrors(); errs != int64(fired["exp.cell"]) {
		t.Errorf("cell errors = %d, want fired(exp.cell) = %d", errs, fired["exp.cell"])
	}
	var names []string
	for s, n := range fired {
		if n > 0 {
			names = append(names, fmt.Sprintf("%s×%d", s, n))
		}
	}
	sort.Strings(names)
	t.Logf("fired: %s", strings.Join(names, " "))

	// Warm retry with faults disarmed: everything matches the
	// reference bit for bit — the chaos left no poison behind.
	for _, l := range lines {
		got := srv.HandleLine(context.Background(), []byte(l))
		if !bytes.Equal(got, ref[l]) {
			t.Fatalf("post-chaos retry diverged for %s:\n%s\nvs\n%s", l, got, ref[l])
		}
	}
	srv.Drain()
	if h := srv.Health(); h.Status == "degraded" {
		t.Logf("health after chaos: %+v", h)
	}
}
