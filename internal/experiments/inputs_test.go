package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"deesim/internal/ilpsim"
	"deesim/internal/runx"
)

// The table's contract: one table serving a matrix's cells builds each
// input once and returns the sweep's exact cells; its key separates
// every setting a prepared input depends on; and it holds the inputs in
// use plus at most one idle one. Build counts are compared as deltas of
// deesim_input_builds_total, because the registry is process-global.

func TestInputsServeMatrixBuildingEachInputOnce(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	matrix, err := RunMatrixContext(context.Background(), ws, cfg, MatrixConfig{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]*InputResult)
	for _, r := range matrix {
		for _, in := range r.Inputs {
			want[in.Input] = in
		}
	}

	var tab Inputs
	b0 := mInputBuilds.Value()
	for _, task := range MatrixTasks(ws, cfg) {
		cell, err := tab.RunCell(context.Background(), nil, ws, cfg, task)
		if err != nil {
			t.Fatal(err)
		}
		in := want[task.Workload+"/"+task.Input]
		if cell.Insts != in.Insts || cell.Accuracy != in.Accuracy || cell.Oracle != in.Oracle ||
			cell.Speedup != in.Speedup[task.Model][task.ET] || cell.RootRate != in.RootRate[task.Model][task.ET] {
			t.Errorf("%s: table cell %+v differs from the sweep's input %+v", task.Key(), cell, in)
		}
	}
	if d, n := mInputBuilds.Value()-b0, int64(len(want)); d != n {
		t.Errorf("table built inputs %d times for %d inputs, want once each", d, n)
	}
}

func TestInputsKeySeparatesConfigs(t *testing.T) {
	ws := matrixTestWorkloads(t)
	base := matrixTestConfig()
	task := MatrixTask{Workload: "espresso", Input: "cps", Model: ilpsim.ModelDEECDMF.String(), ET: 64}
	for _, tc := range []struct {
		what string
		edit func(*Config, *MatrixTask)
	}{
		{"input", func(_ *Config, t *MatrixTask) { t.Input = "bca" }},
		{"scale", func(c *Config, _ *MatrixTask) { c.Scale = 2 }},
		{"max", func(c *Config, _ *MatrixTask) { c.MaxInstrs = 5_000 }},
		{"predictor", func(c *Config, _ *MatrixTask) { c.Predictor = "taken" }},
		{"penalty", func(c *Config, _ *MatrixTask) { c.Opts = ilpsim.Options{Penalty: 3} }},
		{"strictmem", func(c *Config, _ *MatrixTask) { c.Opts = ilpsim.Options{Penalty: 1, StrictMemory: true} }},
	} {
		t.Run(tc.what, func(t *testing.T) {
			cfg, vt := base, task
			tc.edit(&cfg, &vt)
			fresh, err := RunCell(context.Background(), ws, cfg, vt)
			if err != nil {
				t.Fatal(err)
			}
			// The neighbouring config runs first, so the table holds its
			// input idle when the variant arrives.
			var tab Inputs
			if _, err := tab.RunCell(context.Background(), nil, ws, base, task); err != nil {
				t.Fatal(err)
			}
			b0 := mInputBuilds.Value()
			got, err := tab.RunCell(context.Background(), nil, ws, cfg, vt)
			if err != nil {
				t.Fatal(err)
			}
			if d := mInputBuilds.Value() - b0; d != 1 {
				t.Errorf("variant cell built %d inputs, want its own build (1)", d)
			}
			a, _ := json.Marshal(got)
			b, _ := json.Marshal(fresh)
			if string(a) != string(b) {
				t.Errorf("cell after a neighbouring config differs from a fresh RunCell:\n  %s\n  %s", a, b)
			}
		})
	}
}

func TestInputsHoldInUsePlusOneIdle(t *testing.T) {
	key := func(input string) inputKey { return inputKey{workload: "w", input: input} }
	var tab Inputs
	held := func() int { return len(tab.entries) }
	a1 := tab.acquire(key("a"), nil)
	a2 := tab.acquire(key("a"), nil)
	if a1 != a2 || held() != 1 {
		t.Fatalf("two holders of one input got distinct entries (%d held)", held())
	}
	b := tab.acquire(key("b"), nil)
	tab.release(a1)
	tab.release(a2) // a is idle now
	if held() != 2 || tab.idle != a1 {
		t.Fatalf("after releasing a: %d held, idle %v; want a idle beside b", held(), tab.idle)
	}
	if again := tab.acquire(key("a"), nil); again != a1 {
		t.Fatal("reacquiring the idle input rebuilt it")
	} else {
		tab.release(again)
	}
	c := tab.acquire(key("c"), nil) // a different input drops the idle a
	if _, ok := tab.entries[key("a")]; ok || held() != 2 {
		t.Fatalf("idle input kept after a different one was acquired (%d held)", held())
	}
	tab.release(b)
	tab.release(c) // c displaces b as the one idle entry
	if held() != 1 || tab.idle != c {
		t.Fatalf("after releasing everything: %d held, want only the last released", held())
	}
}

func TestInputsRejectCellOutsideConfig(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	good := MatrixTasks(ws, cfg)[0]
	var tab Inputs
	b0 := mInputBuilds.Value()
	for what, edit := range map[string]func(*MatrixTask){
		"workload": func(t *MatrixTask) { t.Workload = "nope" },
		"input":    func(t *MatrixTask) { t.Input = "nope" },
		"model":    func(t *MatrixTask) { t.Model = "EE" },
		"et":       func(t *MatrixTask) { t.ET = 999 },
	} {
		task := good
		edit(&task)
		if _, err := tab.RunCell(context.Background(), nil, ws, cfg, task); !runx.IsKind(err, runx.KindInvalidInput) {
			t.Errorf("%s outside the config: %v, want KindInvalidInput", what, err)
		}
	}
	if d := mInputBuilds.Value() - b0; d != 0 {
		t.Errorf("rejected cells built %d inputs, want 0", d)
	}
}
