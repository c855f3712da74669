package superv

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"deesim/internal/runx"
)

// writeSample records a small run: header, two completed tasks, one
// failed-then-pending task, one in-flight task.
func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := Create(path, "testtool", map[string]string{"digest": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindStart, Key: "a", Attempt: 1},
		{Kind: KindDone, Key: "a", Attempt: 1, Result: json.RawMessage(`{"v":1}`)},
		{Kind: KindStart, Key: "b", Attempt: 1},
		{Kind: KindFail, Key: "b", Attempt: 1, Error: "deadline", ErrKind: "deadline exceeded", Retryable: true},
		{Kind: KindStart, Key: "b", Attempt: 2},
		{Kind: KindDone, Key: "b", Attempt: 2, Result: json.RawMessage(`{"v":2}`)},
		{Kind: KindStart, Key: "c", Attempt: 1},
		{Kind: KindFail, Key: "c", Attempt: 1, Error: "panic", ErrKind: "panic", Retryable: true},
		{Kind: KindStart, Key: "d", Attempt: 1},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalRoundTrip(t *testing.T) {
	path := writeSample(t)
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tool != "testtool" || st.Meta["digest"] != "abc" {
		t.Errorf("header lost: %+v", st)
	}
	if len(st.Done) != 2 || string(st.Done["a"]) != `{"v":1}` || string(st.Done["b"]) != `{"v":2}` {
		t.Errorf("done = %v", st.Done)
	}
	if len(st.Attempts) != 2 || st.Attempts["c"] != 1 || st.Attempts["d"] != 1 {
		t.Errorf("pending = %v", st.Attempts)
	}
	if st.Truncated != 0 {
		t.Errorf("clean journal reported %d torn bytes", st.Truncated)
	}
}

// TestJournalTruncateEveryByte is the crash simulation: for every
// prefix length of a valid journal, recovery must either succeed —
// never inventing completions the prefix doesn't contain — or fail
// with a typed KindCorrupt/KindInvalidInput error. It must never panic.
func TestJournalTruncateEveryByte(t *testing.T) {
	path := writeSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(data); n++ {
		st, err := Decode(data[:n])
		if err != nil {
			if _, ok := runx.As(err); !ok {
				t.Fatalf("truncate@%d: untyped error %v", n, err)
			}
			continue
		}
		if len(st.Done) > len(full.Done) {
			t.Fatalf("truncate@%d: recovered %d completions from a journal holding %d", n, len(st.Done), len(full.Done))
		}
		for k, v := range st.Done {
			if string(full.Done[k]) != string(v) {
				t.Fatalf("truncate@%d: completion %s payload %s != %s", n, k, v, full.Done[k])
			}
		}
	}
}

// TestJournalFlipEveryByte is the bit-rot simulation paired with the
// truncation suite above: for every byte of a valid journal, flip one
// bit and decode. Per-record content digests must make every flip
// either a typed error or provably harmless — a recovered state whose
// completions are a byte-identical subset of the original's (a damaged
// final record may lawfully drop to the torn-tail path and re-run, but
// no flip may ever surface a silently altered payload).
func TestJournalFlipEveryByte(t *testing.T) {
	path := writeSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for off := range data {
		rot := append([]byte(nil), data...)
		rot[off] ^= 1 << (off % 8)
		st, err := Decode(rot)
		if err != nil {
			if _, ok := runx.As(err); !ok {
				t.Fatalf("flip@%d: untyped error %v", off, err)
			}
			continue
		}
		if len(st.Done) > len(full.Done) {
			t.Fatalf("flip@%d: recovered %d completions from a journal holding %d", off, len(st.Done), len(full.Done))
		}
		for k, v := range st.Done {
			if string(full.Done[k]) != string(v) {
				t.Fatalf("flip@%d: completion %s payload %s != original %s", off, k, v, full.Done[k])
			}
		}
	}
}

// TestJournalTornTailRecovered: chopping bytes off the final record is
// recovered (with Truncated > 0) and the surviving completions intact.
func TestJournalTornTailRecovered(t *testing.T) {
	path := writeSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Decode(data[:len(data)-4]) // tear the final record
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated == 0 {
		t.Error("torn tail not reported")
	}
	if len(st.Done) != 2 {
		t.Errorf("torn tail lost completions: %v", st.Done)
	}
}

func TestJournalMidFileCorruptionTyped(t *testing.T) {
	path := writeSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the JSON structure of the second line (the
	// opening brace), leaving later lines intact: mid-file corruption.
	idx := 0
	for i, b := range data {
		if b == '\n' {
			idx = i + 1
			break
		}
	}
	data[idx] = 'X'
	if _, err := Decode(data); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("mid-file corruption returned %v, want KindCorrupt", err)
	}
}

func TestJournalHeaderChecks(t *testing.T) {
	if _, err := Decode(nil); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("empty journal: %v", err)
	}
	if _, err := Decode([]byte(`{"kind":"start","key":"a"}` + "\n")); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("missing header: %v", err)
	}
	if _, err := Decode([]byte(`{"kind":"header","v":99,"tool":"t"}` + "\n")); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("future version: %v", err)
	}
}

// TestResumeCompacts: Resume swaps in a checkpoint holding the header
// plus one done record per completion, drops torn bytes, and the
// reopened journal accepts appends that survive a reload.
func TestResumeCompacts(t *testing.T) {
	path := writeSample(t)
	// Simulate a crash mid-write of the final record.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := Resume(path, "testtool", map[string]string{"digest": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 2 {
		t.Fatalf("resume state: %v", st.Done)
	}
	if err := j.Append(Record{Kind: KindStart, Key: "c", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindDone, Key: "c", Attempt: 1, Result: json.RawMessage(`{"v":3}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Done) != 3 || st2.Truncated != 0 {
		t.Errorf("compacted+appended journal: done=%v torn=%d", st2.Done, st2.Truncated)
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	path := writeSample(t)
	if _, _, err := Resume(path, "othertool", nil); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("foreign tool accepted: %v", err)
	}
	if _, _, err := Resume(path, "testtool", map[string]string{"digest": "different"}); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("mismatched meta accepted: %v", err)
	}
}
