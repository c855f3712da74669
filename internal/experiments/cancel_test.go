package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/isa"
	"deesim/internal/runx"
)

func synthWorkload(name string, iters, work int) bench.Workload {
	return bench.Workload{
		Name: name,
		Inputs: []bench.Input{{
			Name: "in",
			Build: func(scale int) (*isa.Program, error) {
				return bench.BuildSynthetic(bench.SyntheticConfig{
					Iterations: iters, BranchesPerIter: 2, Bias: 85, Seed: 11, Work: work,
				})
			},
		}},
	}
}

// TestMatrixCancelMidSweep emulates a SIGINT arriving mid-sweep: the
// last cell of the first workload cancels the shared context, and
// RunMatrixContext must come back promptly with the completed results
// plus a typed cancellation error — not hang on, and not discard, the
// work already done.
func TestMatrixCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := Config{
		Resources: []int{8, 32},
		MaxInstrs: 5_000_000,
	}
	// "huge" is orders of magnitude more work than "tiny", so tiny
	// finishes (and cancels) while huge is still mid-simulation.
	ws := []bench.Workload{
		synthWorkload("tiny", 50, 1),
		synthWorkload("huge", 200_000, 16),
	}
	tinyCells := MatrixTaskCount(ws[:1], cfg)
	merged := 0 // OnCell calls are serialized
	mcfg := MatrixConfig{
		Jobs: 2,
		// OnCell fires before the cell folds into the aggregates, so
		// cancelling on tiny's last cell still completes tiny.
		OnCell: func(key string, _ bool) {
			if strings.HasPrefix(key, "tiny/") {
				if merged++; merged == tinyCells {
					cancel()
				}
			}
		},
	}
	done, err := RunMatrixContext(ctx, ws, cfg, mcfg)
	if err == nil {
		t.Fatal("expected a cancellation error, got full completion")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	if !runx.IsKind(err, runx.KindCanceled) {
		t.Fatalf("error is not KindCanceled: %v", err)
	}
	if len(done) == 0 {
		t.Fatal("no partial results returned alongside the error")
	}
	for _, r := range done {
		if r.Workload == "tiny" {
			return
		}
	}
	t.Fatalf("completed workload missing from partial results: %v", done)
}

// TestMatrixDeadline checks an already-expired deadline aborts the
// sweep with a typed deadline error.
func TestMatrixDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	done, err := RunMatrixContext(ctx, []bench.Workload{synthWorkload("w", 2000, 2)}, Config{Resources: []int{8}}, MatrixConfig{})
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to DeadlineExceeded: %v", err)
	}
	if !runx.IsKind(err, runx.KindDeadline) {
		t.Fatalf("error is not KindDeadline: %v", err)
	}
	if len(done) != 0 {
		t.Fatalf("expired deadline still produced results: %v", done)
	}
}
