package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var baselineDir = filepath.Join("..", "..", "bench", "baselines")

// committedBaselines returns the names of the BENCH_*.json files in
// bench/baselines/.
func committedBaselines(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(baselineDir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range paths {
		names[filepath.Base(p)] = true
	}
	return names
}

// TestQuickBaselinesReproduce runs every -quick-scale suite of the Registry
// with ghbench's default configuration, marshals each summary as ghbench
// does, and holds the bytes to the committed baseline, the one rule CI's
// `diff -r` gate enforces; a failure lists the lines that differ.
// SHA256SUMS proves the baseline files were not edited; this proves the code
// still produces them — a change to the dispatcher, the cluster's placement
// ladder or anything under them that moves a simulation output fails here,
// in tier-1. The full-window suite (bench-fleet-xl, ~16 s) is left to CI's
// bench-all, which runs all eight.
func TestQuickBaselinesReproduce(t *testing.T) {
	cfg := Default() // ghbench -e bench-all: default scale, -seed 1
	for _, e := range Registry {
		if e.Artifact == "" || e.FullWindow {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			path := filepath.Join(baselineDir, e.Artifact)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := e.Run(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MarshalBench(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s no longer reproduces %s:\n%s", e.Name, path, diffLines(want, got, 20))
			}
		})
	}
}

// diffLines lists the first limit lines at which got differs from want, each
// with its line number in want and both values. MarshalBench writes one leaf
// per line, so a moved leaf is one line; a leaf added or removed shifts
// every line after it, and the first one listed is where the shapes part.
func diffLines(want, got []byte, limit int) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	at := func(lines []string, i int) string {
		if i >= len(lines) {
			return "(no line)"
		}
		return strings.TrimSuffix(strings.TrimSpace(lines[i]), ",")
	}
	var out []string
	differ := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		if i < len(w) && i < len(g) && w[i] == g[i] {
			continue
		}
		if differ++; differ <= limit {
			out = append(out, fmt.Sprintf("  line %d: baseline %s, current %s", i+1, at(w, i), at(g, i)))
		}
	}
	if differ > limit {
		out = append(out, fmt.Sprintf("  … and %d more", differ-limit))
	}
	return strings.Join(out, "\n")
}

// TestBaselinesPinned holds bench/baselines/SHA256SUMS and the directory to
// each other: every BENCH_*.json has a line, every line has its file, and
// the digests match — what CI's `sha256sum -c` checks, plus the unlisted
// file it cannot see. A baseline may only change together with its line,
// and the reason belongs in CHANGES.md.
func TestBaselinesPinned(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join(baselineDir, "SHA256SUMS"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || pinned[f[1]] != "" {
			t.Fatalf("SHA256SUMS: malformed or repeated line %q", line)
		}
		pinned[f[1]] = f[0]
	}
	for name := range committedBaselines(t) {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s has no line in SHA256SUMS", name)
			continue
		}
		delete(pinned, name)
		data, err := os.ReadFile(filepath.Join(baselineDir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, SHA256SUMS pins %s", name, got, want)
		}
	}
	for name := range pinned {
		t.Errorf("SHA256SUMS pins %s, which is not in %s", name, baselineDir)
	}
}
