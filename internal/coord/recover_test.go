package coord_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"deesim/internal/coord"
	"deesim/internal/durable"
	"deesim/internal/faultinject"
	"deesim/internal/fsck"
	"deesim/internal/obs"
	"deesim/internal/server"
)

// TestRecoveryQuarantinesRottedFailedMarker leaves a finished sweep
// with a valid result.json beside a rotted failed.json (a stale marker
// from an earlier attempt). A restarted coordinator must serve the
// result and quarantine the rotted marker, so fsck afterwards finds
// nothing corrupt in the state tree.
func TestRecoveryQuarantinesRottedFailedMarker(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "sweeps", "s000001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(server.Spec{
		Workloads: []string{"xlisp"}, Models: []string{"SP"}, Resources: []int{8}, MaxInstrs: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"spec.json":   spec,
		"result.json": []byte("{\"tables\": []}\n"),
		"failed.json": []byte(`{"error":"boom","kind":"unknown"}` + "\n"),
	} {
		if err := durable.WriteFileAtomic(nil, filepath.Join(dir, name), data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := faultinject.NewFaultyFS(nil, 3).RotFile(filepath.Join(dir, "failed.json")); err != nil {
		t.Fatal(err)
	}

	c, err := coord.New(coord.Config{StateDir: root, Metrics: obs.NewRegistry(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, ok := c.Status("s000001"); !ok || st.State != server.StateDone {
		t.Fatalf("recovered sweep status %+v, want done", st)
	}
	r, err := fsck.Dir(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(fsck.StatusCorrupt); n != 0 {
		t.Errorf("fsck after recovery: %d corrupt verdict(s), want 0: %+v", n, r.Verdicts)
	}
	if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDir, "failed.json")); err != nil {
		t.Errorf("rotted failed.json not quarantined: %v", err)
	}
}
