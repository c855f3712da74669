package experiments

import (
	"context"
	"strings"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
)

// testConfig caps traces so the whole Figure 5 pipeline runs quickly in
// CI while preserving the qualitative shapes.
func testConfig() Config {
	return Config{
		MaxInstrs: 50_000,
		Resources: []int{8, 16, 32, 64, 128, 256},
	}
}

var cached []*WorkloadResult

func results(t *testing.T) []*WorkloadResult {
	t.Helper()
	if cached != nil {
		return cached
	}
	rs, err := RunMatrixContext(context.Background(), bench.All(), testConfig(), MatrixConfig{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	cached = rs
	return rs
}

func hm(t *testing.T) *WorkloadResult {
	t.Helper()
	rs := results(t)
	last := rs[len(rs)-1]
	if last.Workload != "harmonic-mean" {
		t.Fatal("no harmonic-mean aggregate")
	}
	return last
}

// TestFigure5Panels: one result per paper panel (five workloads plus the
// harmonic mean), every model at every resource level, all positive.
func TestFigure5Panels(t *testing.T) {
	rs := results(t)
	if len(rs) != 6 {
		t.Fatalf("got %d panels, want 6", len(rs))
	}
	for _, r := range rs {
		for _, m := range ilpsim.PaperModels {
			for _, et := range testConfig().Resources {
				v := r.Speedup[m.String()][et]
				if v <= 0 {
					t.Errorf("%s %v ET=%d: speedup %v", r.Workload, m, et, v)
				}
			}
		}
		if r.Workload != "harmonic-mean" && r.Oracle <= 1 {
			t.Errorf("%s: oracle %v", r.Workload, r.Oracle)
		}
	}
}

// TestHarmonicMeanOrdering: the paper's headline ordering at high
// resources — DEE-CD-MF on top, SP-CD-MF second, each CD/MF refinement
// no worse than its base, SP at the bottom of its family.
func TestHarmonicMeanOrdering(t *testing.T) {
	h := hm(t)
	at := func(model string, et int) float64 { return h.Speedup[model][et] }
	const et = 256
	if !(at("DEE-CD-MF", et) > at("SP-CD-MF", et)) {
		t.Errorf("DEE-CD-MF (%.2f) not above SP-CD-MF (%.2f)", at("DEE-CD-MF", et), at("SP-CD-MF", et))
	}
	if !(at("SP-CD-MF", et) > at("SP-CD", et)) {
		t.Errorf("SP-CD-MF (%.2f) not above SP-CD (%.2f)", at("SP-CD-MF", et), at("SP-CD", et))
	}
	if !(at("DEE-CD", et) >= at("SP-CD", et)) {
		t.Errorf("DEE-CD (%.2f) below SP-CD (%.2f)", at("DEE-CD", et), at("SP-CD", et))
	}
	if !(at("DEE", et) >= at("SP", et)) {
		t.Errorf("DEE (%.2f) below SP (%.2f)", at("DEE", et), at("SP", et))
	}
	// §5.3: "DEE-CD and DEE-CD-MF are seen to be uniformly better than
	// both SP and EE above 16 branch path resources." On our substrate
	// DEE-CD-MF satisfies this strictly; DEE-CD ties with EE in the
	// mid-range (recorded as a deviation in EXPERIMENTS.md), so it is
	// held to SP-dominance plus an EE parity band.
	for _, et := range []int{32, 64, 128, 256} {
		if at("DEE-CD-MF", et) < at("SP", et)*0.99 || at("DEE-CD-MF", et) < at("EE", et)*0.99 {
			t.Errorf("ET=%d: DEE-CD-MF (%.2f) below SP (%.2f) or EE (%.2f)",
				et, at("DEE-CD-MF", et), at("SP", et), at("EE", et))
		}
		if at("DEE-CD", et) < at("SP", et)*0.99 || at("DEE-CD", et) < at("EE", et)*0.85 {
			t.Errorf("ET=%d: DEE-CD (%.2f) below SP (%.2f) or far below EE (%.2f)",
				et, at("DEE-CD", et), at("SP", et), at("EE", et))
		}
	}
}

// TestSPPlateau: §5.3 — "SP's performance effectively stops improving at
// resources of 16 paths".
func TestSPPlateau(t *testing.T) {
	h := hm(t)
	sp16 := h.Speedup["SP"][16]
	sp256 := h.Speedup["SP"][256]
	if sp256 > sp16*1.10 {
		t.Errorf("SP grew from %.2f at 16 to %.2f at 256; expected a plateau", sp16, sp256)
	}
	spcd16 := h.Speedup["SP-CD"][16]
	spcd256 := h.Speedup["SP-CD"][256]
	if spcd256 > spcd16*1.15 {
		t.Errorf("SP-CD grew from %.2f to %.2f; expected near-plateau", spcd16, spcd256)
	}
}

// TestDEERisesWithResources: unlike SP, DEE-CD-MF keeps improving as
// resources grow (the striking result of the harmonic-mean panel).
func TestDEERisesWithResources(t *testing.T) {
	h := hm(t)
	d16 := h.Speedup["DEE-CD-MF"][16]
	d256 := h.Speedup["DEE-CD-MF"][256]
	if d256 < d16*1.3 {
		t.Errorf("DEE-CD-MF grew only from %.2f to %.2f between 16 and 256 paths", d16, d256)
	}
}

// TestDEE8vsEE256Shape: §5.3 — DEE-CD-MF with 8 branch paths performs at
// least as well as eager execution with 256.
func TestDEE8vsEE256Shape(t *testing.T) {
	h := hm(t)
	d8 := h.Speedup["DEE-CD-MF"][8]
	e256 := h.Speedup["EE"][256]
	if d8 < e256*0.9 {
		t.Errorf("DEE-CD-MF@8 = %.2f well below EE@256 = %.2f", d8, e256)
	}
}

// TestOracleDominates: the oracle bounds every constrained model.
func TestOracleDominates(t *testing.T) {
	for _, r := range results(t) {
		if r.Workload == "harmonic-mean" {
			continue
		}
		for m, byET := range r.Speedup {
			for et, v := range byET {
				if v > r.Oracle*1.001 {
					t.Errorf("%s %s ET=%d: speedup %.2f exceeds oracle %.2f", r.Workload, m, et, v, r.Oracle)
				}
			}
		}
	}
}

// TestAccuracyBand: the run-time 2-bit accuracy across the suite sits in
// the integer-code band around the paper's 90.53%.
func TestAccuracyBand(t *testing.T) {
	h := hm(t)
	if h.Accuracy < 0.82 || h.Accuracy > 0.97 {
		t.Errorf("suite mean accuracy %.3f outside the plausible band", h.Accuracy)
	}
}

// TestRenderContainsSeries: the rendered panel includes every model row
// and the oracle headline.
func TestRenderContainsSeries(t *testing.T) {
	rs := results(t)
	out := Render(rs[0], testConfig())
	for _, m := range ilpsim.PaperModels {
		if !strings.Contains(out, m.String()) {
			t.Errorf("render missing model %s:\n%s", m, out)
		}
	}
	if !strings.Contains(out, "oracle speedup") {
		t.Error("render missing oracle")
	}
}

// TestEspressoUsesFourInputs: the paper's espresso datum is the harmonic
// mean over its four inputs.
func TestEspressoUsesFourInputs(t *testing.T) {
	for _, r := range results(t) {
		if r.Workload == "espresso" {
			if len(r.Inputs) != 4 {
				t.Errorf("espresso has %d inputs, want 4", len(r.Inputs))
			}
			return
		}
	}
	t.Error("espresso result missing")
}

// TestMatrixRejectsBadPredictor covers the error path.
func TestMatrixRejectsBadPredictor(t *testing.T) {
	cfg := testConfig()
	cfg.Predictor = "bogus"
	_, err := RunMatrixContext(context.Background(), bench.All()[:1], cfg, MatrixConfig{})
	if err == nil {
		t.Error("bogus predictor accepted")
	}
}
