package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/dee"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// run invokes the CLI in-process and returns (exit code, stdout, stderr).
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// fastArgs keeps e2e sweeps to a couple of seconds.
func fastArgs(extra ...string) []string {
	return append([]string{
		"-bench", "xlisp,compress", "-max", "5000",
		"-models", "SP,DEE-CD-MF", "-resources", "8,64",
	}, extra...)
}

// TestJournalResumeEndToEnd exercises -journal and -resume through the
// real CLI: a journaled run prints exactly the plain run's panels, and a
// journal with a torn tail and missing records must resume to
// byte-identical output.
func TestJournalResumeEndToEnd(t *testing.T) {
	code, plain, stderr := run(t, fastArgs()...)
	if code != 0 {
		t.Fatalf("plain run exited %d: %s", code, stderr)
	}
	if !strings.Contains(plain, "harmonic-mean") {
		t.Fatalf("plain run printed no harmonic-mean panel:\n%s", plain)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	code, journaled, stderr := run(t, fastArgs("-journal", journal, "-jobs", "2")...)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	// Same panels as the plain run, in the canonical -bench order.
	for _, panel := range []string{"xlisp", "compress", "harmonic-mean"} {
		if !strings.Contains(journaled, panel) {
			t.Errorf("journaled output missing %s panel", panel)
		}
	}
	if xi, ci := strings.Index(journaled, "xlisp"), strings.Index(journaled, "compress"); xi > ci {
		t.Errorf("journaled panels not in canonical order (xlisp@%d, compress@%d)", xi, ci)
	}
	if journaled != plain {
		t.Errorf("journaled output differs from the plain run:\n--- journaled ---\n%s\n--- plain ---\n%s", journaled, plain)
	}

	// Simulate a crash: tear the journal tail (losing its final record
	// mid-write) and resume. Output must be byte-identical again.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	code, resumed, stderr := run(t, fastArgs("-resume", journal, "-jobs", "2")...)
	if code != 0 {
		t.Fatalf("resumed run exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming") {
		t.Errorf("resume did not report replay progress: %s", stderr)
	}
	if resumed != journaled {
		t.Errorf("resumed tables differ from uninterrupted journaled run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", resumed, journaled)
	}

	// A journal recorded under a different matrix must be refused.
	code, _, stderr = run(t, "-bench", "xlisp", "-max", "5000",
		"-models", "SP", "-resources", "8", "-resume", journal)
	if code == 0 {
		t.Error("resume under a changed matrix succeeded")
	} else if !strings.Contains(stderr, "journal") {
		t.Errorf("unhelpful refusal: %s", stderr)
	}
}

// TestOutputIndependentOfJobs: panels print once, in -bench order, so
// the worker-pool size cannot reorder or change stdout.
func TestOutputIndependentOfJobs(t *testing.T) {
	code, serial, stderr := run(t, fastArgs("-jobs", "1", "-stats", "-csv")...)
	if code != 0 {
		t.Fatalf("-jobs 1 exited %d: %s", code, stderr)
	}
	code, parallel, stderr := run(t, fastArgs("-jobs", "4", "-stats", "-csv")...)
	if code != 0 {
		t.Fatalf("-jobs 4 exited %d: %s", code, stderr)
	}
	if serial != parallel {
		t.Errorf("stdout differs between -jobs 1 and -jobs 4:\n--- jobs 1 ---\n%s\n--- jobs 4 ---\n%s", serial, parallel)
	}
}

// TestFsckJournalEndToEnd: -fsck replays a journal's record digests —
// exit 0 on a clean journal, the corrupt-kind exit code after a
// mid-file bit flip, and usage guidance without -journal.
func TestFsckJournalEndToEnd(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.journal")
	code, _, stderr := run(t, "-bench", "xlisp", "-max", "3000",
		"-models", "SP", "-resources", "8", "-journal", journal)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	code, out, stderr := run(t, "-fsck", "-journal", journal)
	if code != 0 {
		t.Fatalf("clean fsck exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("clean fsck output: %s", out)
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = run(t, "-fsck", "-journal", journal)
	if code != runx.ExitCorrupt {
		t.Fatalf("corrupt fsck exited %d, want %d:\n%s", code, runx.ExitCorrupt, out)
	}

	if code, _, stderr := run(t, "-fsck"); code == 0 || !strings.Contains(stderr, "-journal") {
		t.Errorf("-fsck without -journal exited %d: %s", code, stderr)
	}
}

// TestGoldenWriteAndCompareEndToEnd: -write-golden then -golden round
// trips cleanly, and a drifted golden fails with attribution.
func TestGoldenWriteAndCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "smoke.json")
	code, _, stderr := run(t, fastArgs("-write-golden", golden, "-figure", "e2e-smoke")...)
	if code != 0 {
		t.Fatalf("write-golden exited %d: %s", code, stderr)
	}
	code, _, stderr = run(t, fastArgs("-golden", golden)...)
	if code != 0 {
		t.Fatalf("golden compare exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "within tolerance") {
		t.Errorf("no compare confirmation: %s", stderr)
	}

	// Inject a 5% drift into one golden cell; the compare must fail with
	// a typed regression naming the model, benchmark, and figure.
	g, err := superv.LoadGolden(golden)
	if err != nil {
		t.Fatal(err)
	}
	g.Points[0].Speedup *= 1.05
	if err := g.Write(golden); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = run(t, fastArgs("-golden", golden)...)
	if code == 0 {
		t.Fatal("drifted golden passed the gate")
	}
	for _, want := range []string{"golden regression", "e2e-smoke", g.Points[0].Model, g.Points[0].Benchmark} {
		if !strings.Contains(stderr, want) {
			t.Errorf("regression error %q missing %q", stderr, want)
		}
	}
}

func TestJournalAndResumeMutuallyExclusive(t *testing.T) {
	code, _, stderr := run(t, fastArgs("-journal", "a", "-resume", "b")...)
	if code == 0 || !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("exit %d, stderr %s", code, stderr)
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("8, 16,256")
	if err != nil || len(got) != 3 || got[0] != 8 || got[2] != 256 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if got, err := parseInts("100,0"); err != nil || got[1] != 0 {
		t.Errorf("unlimited sentinel rejected: %v %v", got, err)
	}
	for _, bad := range []string{"", "x", "-4", ","} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}

func TestParseModels(t *testing.T) {
	all, err := parseModels("all")
	if err != nil || len(all) != 7 {
		t.Fatalf("all -> %v, %v", all, err)
	}
	got, err := parseModels("dee-cd-mf, SP")
	if err != nil || len(got) != 2 {
		t.Fatalf("parseModels: %v, %v", got, err)
	}
	if got[0].String() != "DEE-CD-MF" || got[1].String() != "SP" {
		t.Errorf("parsed %v", got)
	}
	ref, err := parseModels("dee-pure,dee-profile")
	if err != nil || ref[0].Strategy != dee.DEEPure || ref[1].Strategy != dee.DEEProfile {
		t.Errorf("reference strategies: %v, %v", ref, err)
	}
	if _, err := parseModels("warp-drive"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("bad model accepted: %v", err)
	}
}

func TestSelectWorkloads(t *testing.T) {
	ws, err := selectWorkloads("all")
	if err != nil || len(ws) != 5 {
		t.Fatalf("all workloads: %d, %v", len(ws), err)
	}
	ws, err = selectWorkloads("compress,xlisp")
	if err != nil || len(ws) != 2 || ws[1].Name != "xlisp" {
		t.Fatalf("subset: %v, %v", ws, err)
	}
	if _, err := selectWorkloads("gcc"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestObservabilityFlags exercises the shared telemetry flag block
// end to end: -version short-circuits, -metrics-out dumps a Prometheus
// snapshot with simulator series, -trace-out writes a loadable Chrome
// trace, and -log-level rejects garbage.
func TestObservabilityFlags(t *testing.T) {
	code, out, _ := run(t, "-version")
	if code != 0 || !strings.Contains(out, "deesim version") {
		t.Fatalf("-version: code %d, out %q", code, out)
	}

	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.txt")
	tpath := filepath.Join(dir, "sweep.json")
	args := fastArgs("-metrics-out", mpath, "-trace-out", tpath,
		"-journal", filepath.Join(dir, "run.journal"))
	code, _, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("sweep failed: %s", stderr)
	}
	metrics, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("no metrics snapshot: %v", err)
	}
	for _, want := range []string{
		"# TYPE deesim_sim_cycles_total counter",
		"deesim_sim_instructions_issued_total",
		"deesim_superv_tasks_done_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	trace, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatalf("no trace file: %v", err)
	}
	var tj struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tj); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	// 8 cells + build spans, at minimum.
	if len(tj.TraceEvents) < 9 {
		t.Errorf("trace has %d events, want >= 9", len(tj.TraceEvents))
	}

	code, _, stderr = run(t, "-log-level", "nonsense")
	if code == 0 || !strings.Contains(stderr, "nonsense") {
		t.Errorf("bad -log-level accepted: code %d, stderr %q", code, stderr)
	}
}
