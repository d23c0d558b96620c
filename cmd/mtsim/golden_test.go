package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden_quick.txt from the current code.
// Every rewrite changes a pinned output and needs a CHANGES.md line naming
// the cause (a declared change to a seeded stream, a new experiment, ...).
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_quick.txt from the current outputs")

const goldenQuickFile = "testdata/golden_quick.txt"

// goldenDigests returns "sha256  name" for every .csv, .gp and .txt file in
// dir, sorted by name. The checkpoint journal is excluded: it records
// timings.
func goldenDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".csv", ".gp", ".txt":
		default:
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

func readGoldenTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenQuickFile)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/mtsim -run TestGoldenQuickDigests -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenQuickFile, line)
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGoldenTable(t *testing.T, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("# SHA-256 of every output of `mtsim -experiment all -profile quick -out DIR`\n")
	buf.WriteString("# (checkpoint.jsonl excluded). Rewrite only with -update, and name the cause\n")
	buf.WriteString("# in CHANGES.md.\n")
	for _, name := range names {
		fmt.Fprintf(&buf, "%s  %s\n", got[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(goldenQuickFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenQuickFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenQuickDigests pins every experiment's quick-profile output byte
// for byte, so a change to any seeded stream, float reduction order or
// encoder fails `go test ./...` instead of being discovered later.
func TestGoldenQuickDigests(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	if err := run(context.Background(), []string{"-experiment", "all", "-profile", "quick", "-out", dir}, &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	got := goldenDigests(t, dir)
	if *updateGolden {
		writeGoldenTable(t, got)
		t.Logf("rewrote %s with %d digests", goldenQuickFile, len(got))
		return
	}
	want := readGoldenTable(t)
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: pinned but not written", name)
		case g != w:
			t.Errorf("%s: sha256 %s, pinned %s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not pinned (add it with -update)", name)
		}
	}
}
