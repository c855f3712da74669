package durable_test

import (
	"testing"

	"deesim/internal/coord"
	"deesim/internal/durable"
	"deesim/internal/superv"
)

// TestReplayFirstDoneWins: two done records for one key with different
// payloads replay the same way through both journal flavours — the
// first durable payload is kept and the second counts as one
// duplicate. A resumed superv run and a resumed coordinator therefore
// merge the same bytes for a key however many times it completed.
func TestReplayFirstDoneWins(t *testing.T) {
	const journal = `{"kind":"header","v":1,"tool":"t"}` + "\n" +
		`{"kind":"start","key":"a","attempt":1}` + "\n" +
		`{"kind":"done","key":"a","attempt":1,"result":{"v":1}}` + "\n" +
		`{"kind":"done","key":"a","attempt":2,"result":{"v":2}}` + "\n"
	for _, f := range []struct {
		name   string
		decode func([]byte) (*durable.State, error)
	}{
		{"superv", superv.Decode},
		{"coord", coord.Decode},
	} {
		st, err := f.decode([]byte(journal))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got := string(st.Done["a"]); got != `{"v":1}` {
			t.Errorf("%s: done[a] = %s, want the first payload {\"v\":1}", f.name, got)
		}
		if st.Duplicates != 1 {
			t.Errorf("%s: duplicates = %d, want 1", f.name, st.Duplicates)
		}
		if len(st.Attempts) != 0 {
			t.Errorf("%s: attempts = %v, want none (a is done)", f.name, st.Attempts)
		}
	}
}
