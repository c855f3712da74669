package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans in memory around the calls the harness makes
// into each layer. A nil *tracer records nothing, so untraced runs pay
// one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Layer is the module it enters (bench, trace,
// ilpsim, experiments, superv, durable, memo, server, client, coord);
// parent is the index of the enclosing span, or -1.
type span struct {
	Layer, Name string
	Parent      int
	Start, End  time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	Layer       string
	Calls       int
	Total, Self time.Duration
}

// layerTable folds spans into per-layer totals. A span's self time is
// its duration minus the part of it its children's intervals cover;
// overlapping children are merged first, so concurrent children are
// not subtracted twice.
func layerTable(spans []span) []layerStat {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	by := make(map[string]*layerStat)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := by[s.Layer]
		if st == nil {
			st = &layerStat{Layer: s.Layer}
			by[s.Layer] = st
		}
		d := s.End - s.Start
		st.Calls++
		st.Total += d
		st.Self += d - covered(children[i], s.Start, s.End)
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]time.Duration(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var sum time.Duration
	curLo, curHi := s[0][0], s[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			sum += b - a
		}
	}
	for _, iv := range s[1:] {
		if iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		flush()
		curLo, curHi = iv[0], iv[1]
	}
	flush()
	return sum
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTimeline writes the spans as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing: one lane per layer, nested by time.
func writeTimeline(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	lanes := make(map[string]int)
	var evs []event
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		tid, ok := lanes[s.Layer]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Layer] = tid
			evs = append(evs, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]string{"name": s.Layer}})
		}
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeLayerTable renders the per-layer table.
func writeLayerTable(w io.Writer, title string, rows []layerStat) {
	fmt.Fprintf(w, "%s\n%-12s %8s %12s %12s\n", title, "layer", "calls", "total_ms", "self_ms")
	fmt.Fprintln(w, strings.Repeat("-", 47))
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %12.1f %12.1f\n", r.Layer, r.Calls, ms(r.Total), ms(r.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
