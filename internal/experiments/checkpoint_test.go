package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mtreescale/internal/valid"
)

func TestCheckpointJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := ProfileKey(Quick())
	ck, err := NewCheckpointer(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	resA := &Result{ID: "a", Title: "A", Notes: []string{"n1"}}
	resB := &Result{ID: "b", Title: "B"}
	ck.Append(key, "a", resA)
	ck.Append(key, "b", resB)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Simulate a crash mid-append: a torn trailing line must be tolerated.
	f, err := os.OpenFile(filepath.Join(dir, CheckpointFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"` + key + `","id":"c","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	done, err := LoadCheckpoints(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done["a"] == nil || done["b"] == nil {
		t.Fatalf("loaded %d records, want a and b", len(done))
	}
	if done["a"].Title != "A" || len(done["a"].Notes) != 1 {
		t.Fatalf("record a did not round-trip: %+v", done["a"])
	}

	// Records keyed to a different profile are invisible to a keyed load but
	// visible to LoadAllCheckpoints.
	otherKey := ProfileKey(Medium())
	other, err := LoadCheckpoints(dir, otherKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != 0 {
		t.Fatalf("wrong-profile load returned %d records", len(other))
	}
	all, err := LoadAllCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || len(all[key]) != 2 {
		t.Fatalf("LoadAllCheckpoints = %d keys (%d under ours)", len(all), len(all[key]))
	}

	// Not resuming truncates the journal.
	ck2, err := NewCheckpointer(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	done, err = LoadCheckpoints(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("journal not truncated on fresh run: %d records", len(done))
	}
}

func TestLoadCheckpointsMissingJournal(t *testing.T) {
	done, err := LoadCheckpoints(t.TempDir(), "anykey")
	if err != nil || len(done) != 0 {
		t.Fatalf("missing journal: %v, %d records", err, len(done))
	}
}

func TestProfileKeyDistinguishesProfiles(t *testing.T) {
	q, m := Quick(), Medium()
	if ProfileKey(q) == ProfileKey(m) {
		t.Fatal("distinct profiles share a key")
	}
	nested := q
	nested.Nested = true
	if ProfileKey(q) == ProfileKey(nested) {
		t.Fatal("Nested does not change the checkpoint key")
	}
	if ProfileKey(q) != ProfileKey(Quick()) {
		t.Fatal("key not stable for identical profiles")
	}
}

// TestProfileKeyFields classifies every Profile field as a result field
// (must change the key) or a routing field (must not), and fails on a field
// in neither list, so a new Profile field cannot silently miss the key or
// void resume for byte-identical output.
func TestProfileKeyFields(t *testing.T) {
	result := []string{"Scale", "NSource", "NRcvr", "GridPoints", "Seed",
		"MCMCBurnIn", "MCMCSamples", "MaxGroupSize", "Nested", "ChurnCap", "ChurnSession"}
	routing := []string{"Name", "LargeGraph"}
	class := map[string]bool{}
	for _, f := range result {
		class[f] = true
	}
	for _, f := range routing {
		class[f] = false
	}
	base := Quick()
	want := ProfileKey(base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		isResult, ok := class[name]
		if !ok {
			t.Fatalf("Profile.%s is classified neither as a result nor as a routing field", name)
		}
		p := base
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Fatalf("Profile.%s: no mutation for kind %v", name, f.Kind())
		}
		if changed := ProfileKey(p) != want; changed != isResult {
			t.Errorf("Profile.%s: key changed = %v, want %v", name, changed, isResult)
		}
	}
	for name := range class {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("classified field %s is not a Profile field", name)
		}
	}
}

func TestParseCheckpointLineRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("{"),
		[]byte(`{"key":"k","id":"a","resu`),
		[]byte(`{"key":"","id":"a","result":{}}`),
		[]byte(`{"key":"k","id":"","result":{}}`),
		[]byte(`{"key":"k","id":"a"}`),
		[]byte(`[1,2,3]`),
	}
	for _, line := range cases {
		if _, err := ParseCheckpointLine(line); !valid.IsParam(err) {
			t.Errorf("ParseCheckpointLine(%q) err = %v, want valid.ErrParam", line, err)
		}
	}
	good := []byte(`{"key":"k","id":"a","result":{"ID":"a"}}`)
	rec, err := ParseCheckpointLine(good)
	if err != nil || rec.ID != "a" || rec.Key != "k" || rec.Result == nil {
		t.Fatalf("good line: %+v, %v", rec, err)
	}
}
