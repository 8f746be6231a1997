package xennuma

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds every program under examples/ and runs it with
// no arguments: each must exit 0 and print a non-empty first line. The
// examples are otherwise only compiled, so a facade change that breaks
// one at run time would go unnoticed.
func TestExamplesRun(t *testing.T) {
	ents, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), name)
			if out, err := exec.Command("go", "build", "-o", bin, "./examples/"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
			}
			first, _ := bufio.NewReader(&stdout).ReadString('\n')
			if strings.TrimSpace(first) == "" {
				t.Fatalf("empty first line of output:\n%s", stdout.String())
			}
		})
	}
}
