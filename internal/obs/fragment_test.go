package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFragmentLogAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frags", "f.jsonl")
	l, err := OpenFragmentLog(path, "testproc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(SpanFragment{Trace: "t1", Span: "s1", Name: "a", Start: 10, End: 20}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(SpanFragment{Trace: "t2", Span: "s2", Name: "b", Start: 30, End: 40}); err != nil {
		t.Fatal(err)
	}
	all, err := ReadFragments(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Proc != "testproc" {
		t.Fatalf("read all: %+v", all)
	}
	only, err := ReadFragments(path, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || only[0].Name != "b" {
		t.Fatalf("filter by trace: %+v", only)
	}
}

func TestReadFragmentsToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.jsonl")
	good := `{"trace":"t","span":"s","name":"a","start":1,"end":2}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"trace":"t","sp`), 0o644); err != nil {
		t.Fatal(err)
	}
	frags, err := ReadFragments(path, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0].Name != "a" {
		t.Fatalf("torn tail not skipped: %+v", frags)
	}
}

func TestReadFragmentsMissingFile(t *testing.T) {
	frags, err := ReadFragments(filepath.Join(t.TempDir(), "absent.jsonl"), "")
	if err != nil || frags != nil {
		t.Fatalf("missing file: %v %v", frags, err)
	}
}

func TestNilFragmentLogIsNoOp(t *testing.T) {
	var l *FragmentLog
	if err := l.Append(SpanFragment{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Path() != "" {
		t.Fatal("nil log has a path")
	}
}

func TestStartSpanRecordsChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.jsonl")
	l, err := OpenFragmentLog(path, "p")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	root := NewTrace()
	ctx := WithFragments(WithTraceContext(context.Background(), root), l)
	ctx2, end := StartSpan(ctx, "outer", map[string]string{"k": "v"})
	Instant(ctx2, "point", nil)
	end()
	end() // double close must not double-append
	frags, err := ReadFragments(path, root.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("want 2 fragments, got %+v", frags)
	}
	// Instant is recorded first (span closes after), parented to outer.
	var outer, point SpanFragment
	for _, fr := range frags {
		switch fr.Name {
		case "outer":
			outer = fr
		case "point":
			point = fr
		}
	}
	if outer.Parent != root.SpanID {
		t.Fatalf("outer parent = %q, want root span %q", outer.Parent, root.SpanID)
	}
	if point.Parent != outer.Span {
		t.Fatalf("instant parent = %q, want outer span %q", point.Parent, outer.Span)
	}
	if outer.Attrs["k"] != "v" || outer.End < outer.Start {
		t.Fatalf("outer fragment malformed: %+v", outer)
	}
	if point.Start != point.End {
		t.Fatalf("instant not zero-length: %+v", point)
	}
}

func TestStartSpanNoTraceIsNoOp(t *testing.T) {
	ctx, end := StartSpan(context.Background(), "x", nil)
	end()
	if _, ok := TraceContextFrom(ctx); ok {
		t.Fatal("span minted a trace from nothing")
	}
	// Unsampled context records nothing either.
	tc := NewTrace()
	tc.Sampled = false
	path := filepath.Join(t.TempDir(), "f.jsonl")
	l, _ := OpenFragmentLog(path, "p")
	defer l.Close()
	sctx := WithFragments(WithTraceContext(context.Background(), tc), l)
	_, end = StartSpan(sctx, "quiet", nil)
	end()
	Instant(sctx, "quiet2", nil)
	frags, _ := ReadFragments(path, "")
	if len(frags) != 0 {
		t.Fatalf("unsampled trace recorded: %+v", frags)
	}
}

func TestWriteTimelineAndSkew(t *testing.T) {
	base := time.Now().UnixNano()
	skew := 250 * time.Millisecond
	lanes := []Lane{
		{Name: "coord", Frags: []SpanFragment{
			{Trace: "t", Span: "a", Name: "sweep job-1", Start: base, End: base + int64(2*time.Second)},
			{Trace: "t", Span: "b", Parent: "a", Name: "lease cell-x", Start: base + 1000, End: base + int64(time.Second), Attrs: map[string]string{"lease": "l1"}},
		}},
		{Name: "w0001", Skew: skew, Frags: []SpanFragment{
			{Trace: "t", Span: "c", Parent: "b", Name: "cell cell-x", Start: base + 2000 + int64(skew), End: base + int64(time.Second) + int64(skew)},
			{Trace: "t", Span: "d", Name: "memo hit", Start: base + 5000 + int64(skew), End: base + 5000 + int64(skew)},
		}},
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, lanes); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"process_name"`, `"coord"`, `"w0001"`, `"cell cell-x"`, `"ph":"X"`, `"ph":"i"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %s in %s", want, out)
		}
	}
	// Skew adjustment: the worker's cell span started 2µs after the
	// coordinator's lease span in true time; after adjustment its ts must
	// land near 1µs (lease started at +1000ns), far from the +250ms the
	// raw clock claims.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Ph   string  `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "cell cell-x" && (ev.TS < 0 || ev.TS > 1000) {
			t.Fatalf("skew not removed: cell ts %v µs", ev.TS)
		}
	}
}

// TestWriteTimelinePacksThreads checks tid assignment on a synthetic
// lane: nested spans share their parent's thread, a span that partly
// overlaps every open thread opens a new one, a thread is reused once
// its spans have ended, and a child stays on its parent's thread even
// when a lower thread's open span also encloses it.
func TestWriteTimelinePacksThreads(t *testing.T) {
	span := func(name string, start, end int64) SpanFragment {
		return SpanFragment{Trace: "t", Span: name, Name: name, Start: start, End: end}
	}
	child := func(name, parent string, start, end int64) SpanFragment {
		fr := span(name, start, end)
		fr.Parent = parent
		return fr
	}
	frags := []SpanFragment{
		span("P", 200, 300),
		span("Q", 210, 310),       // partly overlaps P: thread 1
		child("R", "Q", 220, 230), // inside P too, yet Q's child: thread 1
		child("S", "P", 240, 250), // P's child: thread 0
		span("D", 100, 130),       // after A and B end: back on thread 0
		span("A", 0, 100),
		span("B", 10, 50),  // inside A
		span("C", 40, 120), // partly overlaps A and B
		span("I", 45, 45),  // instant inside B
		span("E", 60, 70),  // inside A, after B ended
		span("F", 65, 90),  // partly overlaps E; inside C
		span("G", 65, 130), // partly overlaps E and F
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, []Lane{{Name: "cli", Frags: frags}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"A": 0, "B": 0, "C": 1, "D": 0, "E": 0, "F": 1, "G": 2, "I": 0, "P": 0, "Q": 1, "R": 1, "S": 0}
	got := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			got[ev.Name] = ev.TID
		}
	}
	for name, tid := range want {
		if got[name] != tid {
			t.Errorf("span %s on tid %d, want %d (all: %v)", name, got[name], tid, got)
		}
	}
	for i, a := range doc.TraceEvents {
		for _, b := range doc.TraceEvents[i+1:] {
			if a.Ph != "X" || b.Ph != "X" || a.TID != b.TID {
				continue
			}
			aEnd, bEnd := a.TS+a.Dur, b.TS+b.Dur
			nested := (a.TS <= b.TS && bEnd <= aEnd) || (b.TS <= a.TS && aEnd <= bEnd)
			if a.TS < bEnd && b.TS < aEnd && !nested {
				t.Errorf("spans %s and %s partly overlap on tid %d", a.Name, b.Name, a.TID)
			}
		}
	}
}

func TestEstimateSkew(t *testing.T) {
	ref := map[string]int64{"l1": 1000, "l2": 2000, "l3": 3000}
	remote := map[string]int64{"l1": 501000, "l2": 502500, "l3": 501500, "lX": 9}
	got := EstimateSkew(ref, remote)
	if got != 500*time.Microsecond {
		t.Fatalf("median skew = %v", got)
	}
	if EstimateSkew(ref, map[string]int64{"zz": 1}) != 0 {
		t.Fatal("no-pair skew should be 0")
	}
}
