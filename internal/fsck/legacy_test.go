package fsck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"deesim/internal/coord"
	"deesim/internal/superv"
)

// testdata/v1 holds journals written by the per-package superv and
// coord journal writers that preceded durable's shared journal:
// run.journal and coord.journal as appended, and *.compacted as those
// writers' own Resume left them. Every record carries a sum over its
// original bytes, so loading them proves the shared Record still
// marshals each kind to exactly the bytes its old writer produced.

var v1Meta = map[string]string{"models": "SP,DEE-CD-MF", "resources": "8,64", "workloads": "xlisp"}

// copyV1 copies a testdata/v1 journal into a fresh directory, so Resume
// can rewrite it.
func copyV1(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkCompacted: Resume rewrites the journal to the same bytes the old
// writer's Resume produced.
func checkCompacted(t *testing.T, path, name string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v1", name+".compacted"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("compacted %s differs from the v1 writer's:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestV1SupervJournalLoadsVerifiesAndResumes(t *testing.T) {
	path := copyV1(t, "run.journal")
	if v := Journal(nil, path); v.Status != StatusOK {
		t.Fatalf("fsck verdict %s: %s", v.Status, v.Detail)
	}
	st, err := superv.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tool != "deesim" || len(st.Done) != 2 || st.Attempts["xlisp/default|DEE-CD-MF|ET=8"] != 1 || st.Truncated != 0 {
		t.Fatalf("replayed state: tool %q, done %d, pending %v, torn %d", st.Tool, len(st.Done), st.Attempts, st.Truncated)
	}
	j, st, err := superv.Resume(path, "deesim", v1Meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 2 {
		t.Errorf("resume replayed %d completions, want 2", len(st.Done))
	}
	checkCompacted(t, path, "run.journal")

	// The resumed journal takes new records and replays them.
	j, _, err = superv.Resume(path, "deesim", v1Meta)
	if err != nil {
		t.Fatal(err)
	}
	key := "xlisp/default|DEE-CD-MF|ET=8"
	if err := j.Append(superv.Record{Kind: superv.KindDone, Key: key, Attempt: 2, Result: json.RawMessage(`{"v":3}`)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if st, err := superv.Load(path); err != nil || len(st.Done) != 3 {
		t.Errorf("after append: %v, %v", st, err)
	}
}

func TestV1CoordJournalLoadsVerifiesAndResumes(t *testing.T) {
	path := copyV1(t, "coord.journal")
	if v := Journal(nil, path); v.Status != StatusOK {
		t.Fatalf("fsck verdict %s: %s", v.Status, v.Detail)
	}
	st, err := coord.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tool != "deesim-coord" || len(st.Done) != 2 || st.Duplicates != 1 ||
		st.Attempts["xlisp/default|DEE-CD-MF|ET=8"] != 1 || st.Truncated != 0 {
		t.Fatalf("replayed state: tool %q, done %d, dup %d, attempts %v, torn %d",
			st.Tool, len(st.Done), st.Duplicates, st.Attempts, st.Truncated)
	}
	j, st, err := coord.Resume(path, "deesim-coord", v1Meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 2 {
		t.Errorf("resume replayed %d completions, want 2", len(st.Done))
	}
	checkCompacted(t, path, "coord.journal")

	j, _, err = coord.Resume(path, "deesim-coord", v1Meta)
	if err != nil {
		t.Fatal(err)
	}
	key := "xlisp/default|DEE-CD-MF|ET=8"
	if err := j.Append(coord.Record{Kind: coord.KindAssign, Key: key, Worker: "w0001", Lease: "s000001-l00006", Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if st, err := coord.Load(path); err != nil || st.Attempts[key] != 2 {
		t.Errorf("after append: %v, %v", st, err)
	}
}
