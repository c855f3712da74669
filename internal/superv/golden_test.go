package superv

import (
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/durable"
	"deesim/internal/runx"
)

func sampleGolden() *Golden {
	return &Golden{
		Figure:    "figure5",
		Version:   1,
		Tolerance: 0.01,
		Points: []GoldenPoint{
			{Benchmark: "xlisp", Model: "DEE-CD-MF", ET: 64, Speedup: 9.7325},
			{Benchmark: "xlisp", Model: "SP", ET: 64, Speedup: 3.2099},
			{Benchmark: "compress", Model: "DEE-CD-MF", ET: 8, Speedup: 5.5337},
		},
	}
}

func TestGoldenRoundTripAndCompare(t *testing.T) {
	g := sampleGolden()
	path := filepath.Join(t.TempDir(), "g.json")
	if err := g.Write(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Figure != "figure5" || len(g2.Points) != 3 || g2.Tolerance != 0.01 {
		t.Fatalf("round trip lost data: %+v", g2)
	}
	exact := func(b, m string, et int) (float64, bool) {
		for _, p := range g.Points {
			if p.Benchmark == b && p.Model == m && p.ET == et {
				return p.Speedup, true
			}
		}
		return 0, false
	}
	if err := CompareGolden(g2, exact, 0); err != nil {
		t.Errorf("exact reproduction flagged: %v", err)
	}
	// Within tolerance: +0.5% drift passes at 1%.
	within := func(b, m string, et int) (float64, bool) {
		v, ok := exact(b, m, et)
		return v * 1.005, ok
	}
	if err := CompareGolden(g2, within, 0); err != nil {
		t.Errorf("0.5%% drift flagged at 1%% tolerance: %v", err)
	}
}

// TestGoldenCatchesDrift is the acceptance check: an injected 5% drift
// on one cell fails with a typed KindRegression error naming the
// model, benchmark, and figure.
func TestGoldenCatchesDrift(t *testing.T) {
	g := sampleGolden()
	drifted := func(b, m string, et int) (float64, bool) {
		for _, p := range g.Points {
			if p.Benchmark == b && p.Model == m && p.ET == et {
				if b == "xlisp" && m == "DEE-CD-MF" {
					return p.Speedup * 1.05, true // injected regression
				}
				return p.Speedup, true
			}
		}
		return 0, false
	}
	err := CompareGolden(g, drifted, 0)
	if !runx.IsKind(err, runx.KindRegression) {
		t.Fatalf("5%% drift returned %v, want KindRegression", err)
	}
	e, _ := runx.As(err)
	if e.Model != "DEE-CD-MF" || e.Benchmark != "xlisp" || e.ET != 64 {
		t.Errorf("attribution lost: model=%q benchmark=%q et=%d", e.Model, e.Benchmark, e.ET)
	}
	if msg := err.Error(); !strings.Contains(msg, "figure5") {
		t.Errorf("message %q does not name the figure", msg)
	}
}

func TestGoldenMissingCellIsRegression(t *testing.T) {
	g := sampleGolden()
	none := func(b, m string, et int) (float64, bool) { return 0, false }
	err := CompareGolden(g, none, 0)
	if !runx.IsKind(err, runx.KindRegression) {
		t.Errorf("missing cell returned %v", err)
	}
}

func TestGoldenLoadRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"notjson.json": "not json at all",
		"badver.json":  `{"figure":"f","v":9,"points":[{"benchmark":"b","model":"m","et":1,"speedup":1}]}`,
		"empty.json":   `{"figure":"f","v":1,"points":[]}`,
		"badpt.json":   `{"figure":"f","v":1,"points":[{"benchmark":"b","model":"m","et":1,"speedup":-3}]}`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := durable.WriteFileAtomic(nil, path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGolden(path); !runx.IsKind(err, runx.KindCorrupt) {
			t.Errorf("%s: got %v, want KindCorrupt", name, err)
		}
	}
}
