package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// defaultSeed is the seed the pinned digests were recorded at: the medium
// and paper profiles' own seed, so the pinned files are what
// `mtsim -experiment all -out` writes.
const defaultSeed = 1999

// pinnedJSON holds, per workload, the SHA-256 of every output file at
// defaultSeed.
//
//go:embed pinned.json
var pinnedJSON []byte

// digests maps an output file name to its hex SHA-256.
type digests map[string]string

// digestDir hashes every regular file in dir.
func digestDir(dir string) (digests, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := digests{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// compareDigests checks got against want file by file: every wanted file
// must exist with the same digest, and got may hold no extra file. Each
// file is one check.
func (r *run) compareDigests(what string, got, want digests) {
	names := map[string]bool{}
	for n := range got {
		names[n] = true
	}
	for n := range want {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		g, w := got[n], want[n]
		r.check(g != "" && g == w, "%s: %s digest %q, want %q", what, n, g, w)
	}
}

// checkOutputs checks one iteration's output digests. At defaultSeed they
// must equal the pinned digests. At any seed they must equal the first
// iteration's digests in this run and the digests an earlier run with the
// same seed recorded under r.state (the first run records them).
func (r *run) checkOutputs(got digests, first *digests) error {
	if r.seed == defaultSeed {
		var pinned map[string]digests
		if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
			return fmt.Errorf("pinned.json: %w", err)
		}
		r.compareDigests("pinned", got, pinned[r.workload])
	}
	if *first != nil {
		r.compareDigests("run-against-run", got, *first)
		return nil
	}
	*first = got
	if err := os.MkdirAll(r.state, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.state, r.workload+"-"+strconv.FormatInt(r.seed, 10)+".json")
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, err = json.MarshalIndent(got, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var earlier digests
	if err := json.Unmarshal(b, &earlier); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	r.compareDigests("earlier run", got, earlier)
	return nil
}
