package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/durable"
	"deesim/internal/faultinject"
	"deesim/internal/obs"
)

func newTestStore(t *testing.T, root string) (*Store, []*Record) {
	t.Helper()
	reg := obs.NewRegistry()
	st, pending, err := NewStore(StoreConfig{
		Root: root, Daemon: "deesimd", Noun: "job", Stage: stageServer,
		Logf: t.Logf,
		Counters: StoreCounters{
			Done: reg.GetOrCreateCounter("done"), Failed: reg.GetOrCreateCounter("failed"),
			Quarantined: reg.GetOrCreateCounter("quarantined"), Healed: reg.GetOrCreateCounter("healed"),
			LowDisk: reg.GetOrCreateGauge("low_disk"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, pending
}

// TestStoreRecovery drives the shared recovery scan over one record
// directory per case: verified artifacts decide the record's state,
// corrupt ones are quarantined (evidence kept) and never trusted, stale
// temp files are swept, and the id sequence resumes past every
// directory it saw, readable spec or not. Afterwards no artifact left
// in place fails its digest check, which is what fsck reports on.
func TestStoreRecovery(t *testing.T) {
	specJSON, err := json.MarshalIndent(smokeSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	specJSON = append(specJSON, '\n')
	result := []byte("{\"tables\": []}\n")
	failed := []byte(`{"error":"boom","kind":"deadline exceeded"}` + "\n")
	type files map[string][]byte
	cases := []struct {
		name        string
		durable     files    // written with a digest sidecar
		raw         files    // written as-is
		rot         []string // flipped after writing
		state       string   // "" = not indexed
		quarantined []string
		swept       []string
	}{
		{name: "clean done", durable: files{"spec.json": specJSON, "result.json": result}, state: StateDone},
		{name: "clean failed", durable: files{"spec.json": specJSON, "failed.json": failed}, state: StateFailed},
		{name: "corrupt spec", durable: files{"spec.json": specJSON, "result.json": result},
			rot: []string{"spec.json"}, quarantined: []string{"spec.json"}},
		{name: "corrupt result", durable: files{"spec.json": specJSON, "result.json": result},
			rot: []string{"result.json"}, state: StateQueued, quarantined: []string{"result.json"}},
		{name: "corrupt failed beside valid result", durable: files{"spec.json": specJSON, "result.json": result, "failed.json": failed},
			rot: []string{"failed.json"}, state: StateDone, quarantined: []string{"failed.json"}},
		{name: "stale temp", durable: files{"spec.json": specJSON}, raw: files{"result.json.tmp-7": []byte("partial")},
			state: StateQueued, swept: []string{"result.json.tmp-7"}},
		{name: "missing spec", durable: files{"result.json": result}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "jobs", "j000003")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range tc.durable {
				if err := durable.WriteFileAtomic(nil, filepath.Join(dir, name), data); err != nil {
					t.Fatal(err)
				}
			}
			for name, data := range tc.raw {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			ffs := faultinject.NewFaultyFS(nil, 7)
			for _, name := range tc.rot {
				if _, err := ffs.RotFile(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}

			st, pending := newTestStore(t, root)
			rec, ok := st.Get("j000003")
			switch {
			case tc.state == "" && ok:
				t.Fatalf("record indexed as %s, want skipped", rec.State)
			case tc.state != "" && !ok:
				t.Fatalf("record not indexed, want %s", tc.state)
			case ok && rec.State != tc.state:
				t.Fatalf("state %s, want %s", rec.State, tc.state)
			}
			if wantPending := tc.state == StateQueued; (len(pending) == 1) != wantPending {
				t.Errorf("%d pending record(s), want pending=%v", len(pending), wantPending)
			}
			if ok {
				switch rec.State {
				case StateDone:
					if rec.CellsDone != rec.CellsTotal || rec.CellsTotal != 4 {
						t.Errorf("done record cells %d/%d, want 4/4", rec.CellsDone, rec.CellsTotal)
					}
				case StateFailed:
					if rec.ErrText != "boom" || rec.ErrKind != "deadline exceeded" {
						t.Errorf("failed record error %q kind %q", rec.ErrText, rec.ErrKind)
					}
				case StateQueued:
					if !rec.Resumed {
						t.Error("re-queued record not marked resumed")
					}
				}
			}

			for _, name := range tc.quarantined {
				if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDir, name)); err != nil {
					t.Errorf("%s not quarantined: %v", name, err)
				}
			}
			for _, name := range tc.swept {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Errorf("stale %s still present (%v)", name, err)
				}
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
					continue
				}
				if _, err := durable.ReadFileVerified(nil, filepath.Join(dir, e.Name())); err != nil {
					t.Errorf("corrupt %s left in place after recovery: %v", e.Name(), err)
				}
			}

			// The id sequence resumes past every directory recovery saw.
			next, err := st.Create(context.Background(), smokeSpec())
			if err != nil {
				t.Fatal(err)
			}
			if next.ID != "j000004" {
				t.Errorf("next id %s, want j000004", next.ID)
			}
		})
	}
}
