package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/exp"
)

// fuzzModel is the model stamp of the fuzzed cache files' server.
const fuzzModel = "fuzz-model"

// FuzzLoadCache writes arbitrary bytes as the cache file of a tiny
// server and loads it. LoadCache must never panic. A file whose first
// line is not a format-2 header stamped with the server's model must
// install nothing. Otherwise exactly the valid prefix is installed: the
// cells of the lines up to the first one that fails to parse, to
// verify its checksum or to decode, found here by a plain split of the
// file. The error reports whether anything was lost. The corpus is
// seeded with a real SaveCache file and damaged copies of it. CI runs a
// short -fuzztime smoke of this target on every push.
func FuzzLoadCache(f *testing.F) {
	good := savedCache(f)
	f.Add(good)
	lines := bytes.SplitAfter(good, []byte("\n"))
	f.Add(bytes.Join(lines[:2], nil))                                    // header and one cell
	f.Add(good[:len(good)-len(lines[len(lines)-2])/2])                   // torn last line
	f.Add(bytes.Replace(good, []byte(`"sum":"`), []byte(`"sum":"0`), 1)) // bad checksum
	f.Add(bytes.Replace(good, []byte(fuzzModel), []byte("other-model"), 1))
	f.Add(bytes.Replace(good, []byte(`"format":2`), []byte(`"format":1`), 1))
	f.Add([]byte{})
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"format":2,"model":"` + fuzzModel + `"}` + "\r\n \n" + `{"cell":{"key":""},"sum":"x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, cacheFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		suite := exp.NewSuiteParallel(testScale, 1)
		srv := New(suite, Config{CacheDir: dir, ModelVersion: fuzzModel})
		n, err := srv.LoadCache()
		want, headerOK, clean := validPrefix(data)
		if !headerOK {
			if n != 0 || err == nil {
				t.Fatalf("bad header or model: LoadCache = %d, %v; want 0 cells and an error", n, err)
			}
			if got := suite.Snapshot(); len(got) != 0 {
				t.Fatalf("bad header or model installed %d cells", len(got))
			}
			return
		}
		if clean != (err == nil) {
			t.Fatalf("LoadCache error = %v, but the file is clean = %v", err, clean)
		}
		if n != len(want) {
			t.Fatalf("LoadCache installed %d cells, the valid prefix holds %d", n, len(want))
		}
		if got := suite.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("installed cells differ from the valid prefix:\ngot  %+v\nwant %+v", got, want)
		}
	})
}

// savedCache returns the bytes SaveCache writes for a suite holding two
// computed cells.
func savedCache(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	suite := exp.NewSuiteParallel(testScale, 1)
	suite.Xen("swaptions", "first-touch", true)
	suite.Xen("swaptions", "round-4k", true)
	srv := New(suite, Config{CacheDir: dir, ModelVersion: fuzzModel})
	if n, err := srv.SaveCache(); err != nil || n != 2 {
		f.Fatalf("SaveCache = %d, %v; want 2 cells", n, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, cacheFileName))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// validPrefix is the oracle for FuzzLoadCache. It splits data into
// lines and reports whether the first is a format-2 header stamped with
// fuzzModel, the cells a load must install (the decoded lines before the
// first bad one, each key once, keyless or empty cells skipped, sorted
// by key as Snapshot returns them), and whether no line was bad.
func validPrefix(data []byte) (cells []exp.CellSnapshot, headerOK, clean bool) {
	lines := bytes.Split(data, []byte("\n"))
	var hdr struct {
		Format int    `json:"format"`
		Model  string `json:"model"`
	}
	if len(data) == 0 || json.Unmarshal(lines[0], &hdr) != nil || hdr.Format != 2 || hdr.Model != fuzzModel {
		return nil, false, false
	}
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Cell json.RawMessage `json:"cell"`
			Sum  string          `json:"sum"`
		}
		if json.Unmarshal(line, &rec) != nil {
			return sortedCells(cells), true, false
		}
		h := fnv.New64a()
		h.Write(rec.Cell)
		if fmt.Sprintf("%016x", h.Sum64()) != rec.Sum {
			return sortedCells(cells), true, false
		}
		var c exp.CellSnapshot
		if json.Unmarshal(rec.Cell, &c) != nil {
			return sortedCells(cells), true, false
		}
		if c.Key != "" && len(c.Results) > 0 && !seen[c.Key] {
			seen[c.Key] = true
			cells = append(cells, c)
		}
	}
	return sortedCells(cells), true, true
}

func sortedCells(cells []exp.CellSnapshot) []exp.CellSnapshot {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key })
	return cells
}
