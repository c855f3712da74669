package superv

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"deesim/internal/durable"
	"deesim/internal/runx"
)

// DefaultGoldenTolerance is the relative speedup drift allowed before
// CompareGolden fails, used when neither the golden file nor the caller
// specifies one. Reproduced figures are deterministic, so the tolerance
// exists only to absorb cross-platform floating-point variation — a
// real regression (the issue's injected 5% drift) is far outside it.
const DefaultGoldenTolerance = 0.01

// GoldenPoint is one (benchmark, model, ET) cell of a golden figure.
type GoldenPoint struct {
	Benchmark string  `json:"benchmark"`
	Model     string  `json:"model"`
	ET        int     `json:"et"`
	Speedup   float64 `json:"speedup"`
}

// Golden is a machine-readable snapshot of one reproduced figure,
// stored under results/golden/. Points are the figure's series cells.
type Golden struct {
	Figure    string  `json:"figure"`
	Version   int     `json:"v"`
	Tolerance float64 `json:"tolerance,omitempty"`
	// Command regenerates the snapshot (documentation for operators).
	Command string        `json:"command,omitempty"`
	Points  []GoldenPoint `json:"points"`
}

const stageGolden = "superv.CompareGolden"

// LoadGolden reads and validates a golden snapshot, checking its
// ".sha256" digest sidecar when one exists (Write records one; golden
// files without a sidecar load unverified).
func LoadGolden(path string) (*Golden, error) {
	data, err := durable.ReadFileVerified(nil, path)
	if err != nil {
		if runx.IsKind(err, runx.KindCorrupt) {
			return nil, runx.Annotate(err, stageGolden)
		}
		return nil, runx.Newf(runx.KindInvalidInput, stageGolden, "read %s: %w", path, err)
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, runx.Newf(runx.KindCorrupt, stageGolden, "parse %s: %w", path, err)
	}
	if g.Version != 1 {
		return nil, runx.Newf(runx.KindCorrupt, stageGolden, "%s: golden version %d, this build reads 1", path, g.Version)
	}
	if g.Figure == "" || len(g.Points) == 0 {
		return nil, runx.Newf(runx.KindCorrupt, stageGolden, "%s: golden snapshot without figure name or points", path)
	}
	for _, p := range g.Points {
		if p.Benchmark == "" || p.Model == "" || !(p.Speedup > 0) || math.IsInf(p.Speedup, 0) {
			return nil, runx.Newf(runx.KindCorrupt, stageGolden, "%s: malformed point %+v", path, p)
		}
	}
	return &g, nil
}

// Write stores the snapshot atomically (temp file + rename) with
// points in canonical order, so regenerated goldens diff cleanly.
func (g *Golden) Write(path string) error {
	g.Version = 1
	sort.Slice(g.Points, func(i, j int) bool {
		a, b := g.Points[i], g.Points[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.ET < b.ET
	})
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(nil, path, append(data, '\n'))
}

// Lookup resolves a reproduced speedup for one golden cell; ok=false
// means the reproduction did not produce that cell.
type Lookup func(benchmark, model string, et int) (float64, bool)

// CompareGolden checks every golden point against the reproduced
// results. tolerance ≤ 0 falls back to the snapshot's own tolerance,
// then DefaultGoldenTolerance. The first drifting or missing cell is
// returned as a *runx.Error of kind KindRegression whose attribution
// names the model, benchmark, and figure — enough to locate the
// regression without re-running the sweep. nil means every cell is
// within tolerance.
func CompareGolden(g *Golden, got Lookup, tolerance float64) error {
	if tolerance <= 0 {
		tolerance = g.Tolerance
	}
	if tolerance <= 0 {
		tolerance = DefaultGoldenTolerance
	}
	for _, p := range g.Points {
		v, ok := got(p.Benchmark, p.Model, p.ET)
		if !ok {
			return &runx.Error{
				Kind: runx.KindRegression, Stage: stageGolden,
				Model: p.Model, Benchmark: p.Benchmark, ET: p.ET,
				Err: fmt.Errorf("figure %s: golden cell not reproduced (missing from results)", g.Figure),
			}
		}
		drift := math.Abs(v-p.Speedup) / p.Speedup
		if drift > tolerance || math.IsNaN(drift) {
			return &runx.Error{
				Kind: runx.KindRegression, Stage: stageGolden,
				Model: p.Model, Benchmark: p.Benchmark, ET: p.ET,
				Err: fmt.Errorf("figure %s: speedup %.4f drifted from golden %.4f (%+.2f%%, tolerance %.2f%%)",
					g.Figure, v, p.Speedup, 100*(v-p.Speedup)/p.Speedup, 100*tolerance),
			}
		}
	}
	return nil
}
