package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateTables = flag.Bool("update", false, "rewrite the table fixture with the current output")

// TestTablesMatchFixture pins two CLI tables at scale 256 to a committed
// fixture, byte for byte: the policy registry listing and the policy
// sweep over every application. The sweep runs every registered policy,
// plain and with each Carrefour variant, on every app, so a change that
// moves any placement decision on either backend fails here. An
// intentional behaviour change regenerates the fixture with
// `go test -run TestTablesMatchFixture -update ./cmd/xnuma/` and
// justifies the diff.
func TestTablesMatchFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("the all-apps sweep takes seconds; run without -short")
	}
	if raceEnabled {
		t.Skip("the all-apps sweep is too slow under race; CI runs it in a plain step")
	}
	var out strings.Builder
	for _, args := range [][]string{
		{"-scale", "256", "policies"},
		{"-scale", "256", "-parallel", "2", "sweep", "-apps", "all"},
	} {
		var errb strings.Builder
		if code := runIO(args, strings.NewReader(""), &out, &errb); code != 0 {
			t.Fatalf("xnuma %s: exit %d, stderr %q", strings.Join(args, " "), code, errb.String())
		}
	}
	path := filepath.Join("testdata", "tables_scale256.txt")
	if *updateTables {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading table fixture (regenerate with -update): %v", err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}
