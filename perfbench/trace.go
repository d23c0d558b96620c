package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the harness made into a layer: name is
// "<layer>.<call>", Parent is the enclosing span's ID (0 for a root), and
// every span of one benchmark invocation carries the same Run id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span belongs to: the name up to its first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory. The harness calls layers from one
// goroutine, so a stack of open spans gives each new span its parent. A nil
// *tracer records nothing: untraced runs pass nil and pay one branch.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	open  []int // indices into spans
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// do runs fn inside a span named name and returns fn's error.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, idx)
	err := fn()
	t.spans[idx].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	return err
}

// write dumps the recorded spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each span's self time, keyed by span ID: its duration
// minus the part of its interval that its direct children cover. Children
// may overlap each other; their union is subtracted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([]span, len(kids))
	copy(iv, kids)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	curS, curE := iv[0].Start, iv[0].End
	flush := func() {
		s, e := max(curS, p.Start), min(curE, p.End)
		if e > s {
			total += e - s
		}
	}
	for _, k := range iv[1:] {
		if k.Start <= curE {
			curE = max(curE, k.End)
			continue
		}
		flush()
		curS, curE = k.Start, k.End
	}
	flush()
	return total
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// total sums the durations of spans with the given name.
func total(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// durations lists the durations of spans with the given name, in order.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}
