package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"deesim/internal/memo"
	"deesim/internal/obs"
)

// The memo's contract at the experiments layer: a memoized sweep is
// byte-identical to an unmemoized one, a warm repeat executes zero
// simulations, and deesim_cells_started_total counts only actual
// simulator executions.

func TestMatrixMemoWarmRunSkipsAllSimulations(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	m, err := memo.New(memo.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	started := obs.GetOrCreateCounter("deesim_cells_started_total")

	plain, err := RunMatrixContext(context.Background(), ws, cfg, MatrixConfig{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}

	s0 := started.Value()
	cold, err := RunMatrixContext(context.Background(), ws, cfg, MatrixConfig{Jobs: 4, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	coldStarted := started.Value() - s0
	if want := int64(MatrixTaskCount(ws, cfg)); coldStarted != want {
		t.Fatalf("cold memoized run started %d cells, want %d", coldStarted, want)
	}

	s1 := started.Value()
	warm, err := RunMatrixContext(context.Background(), ws, cfg, MatrixConfig{Jobs: 4, Memo: m})
	if err != nil {
		t.Fatal(err)
	}
	if d := started.Value() - s1; d != 0 {
		t.Fatalf("warm run started %d simulations, want 0 (all cells cached)", d)
	}

	// Memoized results — cold and warm — must be byte-identical to the
	// memo-less run: the cache may change latency, never bytes.
	want := renderAll(plain, cfg)
	if got := renderAll(cold, cfg); got != want {
		t.Errorf("cold memoized tables differ from plain run:\n--- memo ---\n%s\n--- plain ---\n%s", got, want)
	}
	if got := renderAll(warm, cfg); got != want {
		t.Errorf("warm memoized tables differ from plain run:\n--- memo ---\n%s\n--- plain ---\n%s", got, want)
	}
}

func TestRunCellMemoSharesEntriesWithMatrix(t *testing.T) {
	// A sweep and a lone cell RPC that describe the same simulation must
	// share a cache entry: that is what content addressing buys the
	// fleet (a coordinator prefills from cells workers computed, and
	// vice versa).
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	m, err := memo.New(memo.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	task := MatrixTasks(ws, cfg)[0]
	started := obs.GetOrCreateCounter("deesim_cells_started_total")

	var tab Inputs
	first, err := tab.RunCell(context.Background(), m, ws, cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	s0 := started.Value()
	second, err := tab.RunCell(context.Background(), m, ws, cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	if d := started.Value() - s0; d != 0 {
		t.Fatalf("second identical cell started %d simulations, want 0", d)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("cached cell differs from computed cell:\n  %s\n  %s", a, b)
	}

	// And a fresh unmemoized RunCell agrees byte for byte.
	direct, err := RunCell(context.Background(), ws, cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := json.Marshal(direct)
	if string(a) != string(c) {
		t.Fatalf("memoized cell differs from direct RunCell:\n  %s\n  %s", a, c)
	}
}

func TestRunCellMemoNilMemoIsRunCell(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	task := MatrixTasks(ws, cfg)[0]
	viaNil, err := new(Inputs).RunCell(context.Background(), nil, ws, cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunCell(context.Background(), ws, cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(viaNil)
	b, _ := json.Marshal(direct)
	if string(a) != string(b) {
		t.Fatalf("nil-memo Inputs.RunCell differs from RunCell:\n  %s\n  %s", a, b)
	}
}
