package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mtreescale/internal/atomicio"
	"mtreescale/internal/valid"
)

// CheckpointFile is the journal name inside an output directory: one JSON
// record per completed experiment, fsynced, so an interrupted run can resume
// without redoing finished work, and the mtsimd daemon can answer queries
// from precomputed results after a restart.
const CheckpointFile = "checkpoint.jsonl"

// CheckpointRecord is one completed experiment. Key binds the record to the
// exact profile that produced it: a resume or a serving lookup under a
// different profile ignores it.
type CheckpointRecord struct {
	Key    string  `json:"key"`
	ID     string  `json:"id"`
	Result *Result `json:"result"`
}

// profileKeySchema versions ProfileKey's input. Bump it whenever
// profileKey's fields or their meaning change, so journals and caches
// written under the old key stop matching instead of being misread.
const profileKeySchema = 2

// profileKey holds the Profile fields that determine results. Name only
// labels a profile and LargeGraph only picks the topology storage layout
// (output is byte-identical), so neither is keyed: a layout switch keeps
// resume and cached reads valid.
type profileKey struct {
	Schema                  int
	Scale                   float64
	NSource, NRcvr          int
	GridPoints              int
	Seed                    int64
	MCMCBurnIn, MCMCSamples int
	MaxGroupSize            int
	Nested                  bool
	ChurnCap                int
	ChurnSession            string
}

// ProfileKey fingerprints the result-determining fields of a profile.
// Experiments are deterministic functions of those fields, so (key, id)
// identifies a result exactly.
func ProfileKey(p Profile) string {
	k := profileKey{
		Schema: profileKeySchema, Scale: p.Scale, NSource: p.NSource, NRcvr: p.NRcvr,
		GridPoints: p.GridPoints, Seed: p.Seed, MCMCBurnIn: p.MCMCBurnIn,
		MCMCSamples: p.MCMCSamples, MaxGroupSize: p.MaxGroupSize, Nested: p.Nested,
		ChurnCap: p.ChurnCap, ChurnSession: p.ChurnSession,
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", k)))
	return hex.EncodeToString(sum[:])
}

// ParseCheckpointLine decodes one journal line. Malformed or incomplete
// records — the torn trailing write a crash leaves behind — are rejected
// with a valid.ErrParam-wrapped error so loaders can skip them.
func ParseCheckpointLine(line []byte) (CheckpointRecord, error) {
	var rec CheckpointRecord
	if len(line) == 0 {
		return CheckpointRecord{}, valid.Badf("experiments: empty checkpoint line")
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return CheckpointRecord{}, valid.Badf("experiments: malformed checkpoint line: %v", err)
	}
	if rec.Key == "" || rec.ID == "" || rec.Result == nil {
		return CheckpointRecord{}, valid.Badf("experiments: incomplete checkpoint record (key %q, id %q)", rec.Key, rec.ID)
	}
	return rec, nil
}

// Checkpointer appends completed experiments to <dir>/checkpoint.jsonl.
// Append is safe for concurrent use (the scheduler calls OnComplete from
// worker goroutines; the daemon appends from request handlers) and fsyncs
// after every record so a crash loses at most the experiment in flight. It
// is a thin typed facade over atomicio.Journal — the same substrate the
// cluster coordinator journals shard partials to.
type Checkpointer struct {
	j *atomicio.Journal
}

// NewCheckpointer opens the journal for appending, truncating any previous
// journal unless resume is set.
func NewCheckpointer(dir string, resume bool) (*Checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, err := atomicio.OpenJournal(filepath.Join(dir, CheckpointFile), resume)
	if err != nil {
		return nil, err
	}
	return &Checkpointer{j: j}, nil
}

// Append journals one completed experiment under the given profile key.
// Failures are remembered rather than returned: the scheduler's OnComplete
// hook has no error channel, and a broken journal must not fail the
// experiments themselves.
func (c *Checkpointer) Append(key, id string, res *Result) {
	c.j.Append(id, CheckpointRecord{Key: key, ID: id, Result: res})
}

// Close releases the journal and reports the first deferred write failure.
// Close is idempotent.
func (c *Checkpointer) Close() error {
	return c.j.Close()
}

// LoadCheckpoints reads the journal from dir and returns the completed
// results recorded under the given profile key. A missing journal is an
// empty resume; a torn trailing line (the crash case the journal exists for)
// is skipped, as are records from other profiles.
func LoadCheckpoints(dir, key string) (map[string]*Result, error) {
	byKey, err := LoadAllCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	done := byKey[key]
	if done == nil {
		done = map[string]*Result{}
	}
	return done, nil
}

// LoadAllCheckpoints reads the journal from dir and returns every recorded
// result grouped by profile key — the form the daemon's degraded-mode cache
// wants, since it serves more than one profile from a single journal. Torn
// trailing lines (the crash case the journal exists for) are skipped.
func LoadAllCheckpoints(dir string) (map[string]map[string]*Result, error) {
	out := map[string]map[string]*Result{}
	_, err := atomicio.ReadJournal(filepath.Join(dir, CheckpointFile), func(line []byte) error {
		rec, err := ParseCheckpointLine(line)
		if err != nil {
			return err
		}
		if out[rec.Key] == nil {
			out[rec.Key] = map[string]*Result{}
		}
		out[rec.Key][rec.ID] = rec.Result
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return out, nil
}
