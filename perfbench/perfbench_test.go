package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{n: 0, limit: 95, ok: false},
		{n: 19, limit: 95, ok: false}, // the median would have 9 above it
		{n: 20, limit: 95, want: 50, ok: true},
		{n: 40, limit: 95, want: 75, ok: true},
		{n: 100, limit: 95, want: 90, ok: true},
		{n: 199, limit: 95, want: 90, ok: true},
		{n: 200, limit: 95, want: 95, ok: true},
		{n: 1000, limit: 95, want: 95, ok: true}, // capped by limit
		{n: 1000, limit: 99, want: 99, ok: true},
		{n: 999, limit: 99.9, want: 95, ok: true},
	} {
		got, ok := tailPercentile(tc.n, tc.limit)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", tc.n, tc.limit, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d p%v leaves %d samples beyond, want >= %d", tc.n, got, beyond(tc.n, got), minBeyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
	p50, tail, pct := percentiles(make([]float64, 10))
	if p50 != 0 || tail != 0 || pct != 0 {
		t.Error("10 samples are too few for a median with 10 beyond it")
	}
}

func TestParseProm(t *testing.T) {
	snap, err := parseProm(`# HELP deesim_memo_hits_total hits
# TYPE deesim_memo_hits_total counter
deesim_memo_hits_total 12
deesim_retry_budget_spent_total{layer="client"} 2
deesim_retry_budget_spent_total{layer="superv"} 3
deesim_cell_duration_seconds_bucket{le="0.5"} 7 # {trace_id="abc"} 0.3 1700000000
deesim_cell_duration_seconds_sum 1.25e+00
deesim_odd{path="a b"} 4

`)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"deesim_memo_hits_total":           12,
		"deesim_retry_budget_spent_total":  5,
		"deesim_cell_duration_seconds_sum": 1.25,
		"deesim_cell_duration_seconds":     0, // a prefix of other series, not a series
		"deesim_odd":                       4,
		"deesim_absent_total":              0,
	} {
		if got := snap.sum(name); got != want {
			t.Errorf("sum(%s) = %v, want %v", name, got, want)
		}
	}
	if got := snap[`deesim_cell_duration_seconds_bucket{le="0.5"}`]; got != 7 {
		t.Errorf("bucket with exemplar = %v, want 7", got)
	}
	if _, err := parseProm("deesim_broken_total\n"); err == nil {
		t.Error("a line without a value should not parse")
	}
	if _, err := parseProm("deesim_broken_total x\n"); err == nil {
		t.Error("a non-numeric value should not parse")
	}
}

func TestCheckCountsGate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "counts")
	first := map[string]int64{"sim_cycles": 33458740, "cells": 336}
	if err := checkCounts(dir, "fig5", first); err != nil {
		t.Fatalf("first run records: %v", err)
	}
	if err := checkCounts(dir, "fig5", map[string]int64{"cells": 336, "sim_cycles": 33458740}); err != nil {
		t.Fatalf("identical counts rejected: %v", err)
	}
	err := checkCounts(dir, "fig5", map[string]int64{"sim_cycles": 33458741, "cells": 336})
	if err == nil || !strings.Contains(err.Error(), "sim_cycles: 33458741, earlier run 33458740") {
		t.Fatalf("changed count not reported: %v", err)
	}
	err = checkCounts(dir, "fig5", map[string]int64{"cells": 336})
	if err == nil || !strings.Contains(err.Error(), "sim_cycles: missing") {
		t.Fatalf("missing count not reported: %v", err)
	}
	if err := checkCounts(dir, "other", map[string]int64{"cells": 1}); err != nil {
		t.Fatalf("records are per key: %v", err)
	}
	if err := checkCounts(dir, "none", nil); err != nil {
		t.Fatalf("no counts is not a failure: %v", err)
	}
}

func TestLayerTableSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Layer: "experiments", Name: "input", Parent: -1, Start: 0, End: 10 * ms},
		{Layer: "trace", Name: "record", Parent: 0, Start: 1 * ms, End: 3 * ms},
		{Layer: "ilpsim", Name: "run a", Parent: 0, Start: 2 * ms, End: 5 * ms},  // overlaps record
		{Layer: "ilpsim", Name: "run b", Parent: 0, Start: 8 * ms, End: 12 * ms}, // runs past its parent
		{Layer: "ilpsim", Name: "open", Parent: 0, Start: 9 * ms, End: -1},       // never closed: ignored
	}
	got := make(map[string]layerStat)
	for _, r := range layerTable(spans) {
		got[r.Layer] = r
	}
	// The parent's children cover [1,5] and [8,10] of it: 6 ms.
	if s := got["experiments"]; s.Self != 4*ms || s.Total != 10*ms || s.Calls != 1 {
		t.Errorf("experiments = %+v, want self 4ms total 10ms", s)
	}
	if s := got["ilpsim"]; s.Self != 7*ms || s.Calls != 2 {
		t.Errorf("ilpsim = %+v, want self 7ms over 2 calls", s)
	}
	if s := got["trace"]; s.Self != 2*ms {
		t.Errorf("trace = %+v, want self 2ms", s)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("client", "Submit", -1)
	if id != -1 || tr.end(id) != 0 {
		t.Fatal("a nil tracer should be a no-op")
	}
}

func TestSameResult(t *testing.T) {
	want := []byte("[\n  {\"Workload\": \"cc1\"}\n]")
	if !sameResult(append(append([]byte(nil), want...), '\n'), want) {
		t.Error("a trailing newline should not matter")
	}
	if sameResult([]byte("[\n  {\"Workload\": \"cc2\"}\n]"), want) {
		t.Error("different bytes compared equal")
	}
	if sameResult([]byte("[{\"Workload\": \"cc1\"}]"), want) {
		t.Error("re-indented JSON is not byte-identical")
	}
	if sameResult(nil, nil) {
		t.Error("a missing reference must not pass")
	}
}
