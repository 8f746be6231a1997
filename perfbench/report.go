package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// report prints the medians of recorded runs (perfbench --record FILE),
// one column per (host fingerprint, commit). Columns of different
// fingerprints sit side by side for reading only: a ratio is printed
// only between commits measured on the same fingerprint.
//
//	perfbench report runs.jsonl
func report(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "usage: perfbench report FILE...")
		return 2
	}
	type column struct{ host, commit string }
	// (workload, trace) -> column -> metric -> values
	groups := map[string]map[column]map[string][]float64{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var rec record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
				f.Close()
				return 2
			}
			g := fmt.Sprintf("%s trace=%v", rec.Workload, rec.Trace)
			col := column{rec.Fingerprint.Key(), rec.Fingerprint.Commit}
			if groups[g] == nil {
				groups[g] = map[column]map[string][]float64{}
			}
			if groups[g][col] == nil {
				groups[g][col] = map[string][]float64{}
			}
			for k, v := range rec.Metrics {
				groups[g][col][k] = append(groups[g][col][k], v)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}

	for _, g := range sortedKeys(groups) {
		cols := make([]column, 0, len(groups[g]))
		for c := range groups[g] {
			cols = append(cols, c)
		}
		sort.Slice(cols, func(i, j int) bool {
			if cols[i].host != cols[j].host {
				return cols[i].host < cols[j].host
			}
			return cols[i].commit < cols[j].commit
		})
		fmt.Fprintf(stdout, "## %s\n", g)
		for i, c := range cols {
			fmt.Fprintf(stdout, "  [%d] host %s, commit %s\n", i, c.host, c.commit)
		}
		metrics := map[string]bool{}
		for _, c := range cols {
			for k := range groups[g][c] {
				metrics[k] = true
			}
		}
		for _, k := range sortedKeys(metrics) {
			var b strings.Builder
			fmt.Fprintf(&b, "  %-30s", k)
			for i, c := range cols {
				vs := groups[g][c][k]
				fmt.Fprintf(&b, "  [%d] %.6g (n=%d)", i, median(vs), len(vs))
				// Compare with the previous column only on the same host.
				if i > 0 && cols[i-1].host == c.host {
					if base := median(groups[g][cols[i-1]][k]); base != 0 {
						fmt.Fprintf(&b, " %+.1f%%", 100*(median(vs)/base-1))
					}
				}
			}
			fmt.Fprintln(stdout, b.String())
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
