package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"mtreescale/internal/topology"
)

// TestLargeGraphHonoured checks that the experiments which fetch a single
// standard topology honour Profile.LargeGraph: their output is byte-identical
// in either layout, and a LargeGraph run leaves no flat-layout copy in the
// topology cache.
func TestLargeGraphHonoured(t *testing.T) {
	ids := []string{"table1", "churn-steady", "churn-repair", "ext-shared", "ext-steiner"}
	flat := Quick()
	large := flat
	large.LargeGraph = true
	want := map[string][]byte{}
	for _, id := range ids {
		want[id] = runJSON(t, id, flat)
	}
	topology.ResetCache()
	defer topology.ResetCache()
	for _, id := range ids {
		if got := runJSON(t, id, large); !bytes.Equal(got, want[id]) {
			t.Errorf("%s: LargeGraph output differs from the flat layout", id)
		}
	}
	for _, name := range topology.StandardNames() {
		before := topology.CacheInfo().Misses
		if _, err := topology.GenerateCached(name, 0, large.Scale); err != nil {
			t.Fatal(err)
		}
		if topology.CacheInfo().Misses == before {
			t.Errorf("%s: a flat-layout topology was cached during the LargeGraph run", name)
		}
	}
}

func runJSON(t *testing.T, id string, p Profile) []byte {
	t.Helper()
	res, err := Run(id, p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
