package durable

import (
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/runx"
)

// testFormat is a journal flavour that counts its appends; its
// fixtures use start records, which State.apply accepts, and an
// unknown "bad" kind, which it refuses, so the framing rules are
// visible on their own.
func testFormat(appends *int) *JournalFormat {
	return &JournalFormat{Stage: "test.Journal", OnAppend: func() { *appends++ }}
}

func TestJournalFramingRules(t *testing.T) {
	const hdr = `{"kind":"header","v":1,"tool":"t"}` + "\n"
	const ok = `{"kind":"start","key":"a"}` + "\n"
	const bad = `{"kind":"bad","key":"a"}` + "\n"
	cases := []struct {
		name, data string
		torn       int  // want Truncated
		corrupt    bool // want a KindCorrupt error
	}{
		{"header only", hdr, 0, false},
		{"records", hdr + ok + ok, 0, false},
		{"unterminated tail", hdr + ok + `{"kind":"start"`, len(`{"kind":"start"`), false},
		{"refused final record", hdr + ok + bad, len(bad), false},
		{"refused interior record", hdr + bad + ok, 0, true},
		{"unparsable interior record", hdr + "{x\n" + ok, 0, true},
		{"second header", hdr + hdr + ok, 0, true},
		{"blank lines skipped", hdr + "\n  \n" + ok, 0, false},
		{"missing header", ok, 0, true},
		{"wrong version", `{"kind":"header","v":2,"tool":"t"}` + "\n", 0, true},
		{"empty", "", 0, true},
	}
	var n int
	jf := testFormat(&n)
	for _, tc := range cases {
		r, err := jf.Decode([]byte(tc.data))
		if tc.corrupt {
			if !runx.IsKind(err, runx.KindCorrupt) {
				t.Errorf("%s: err = %v, want KindCorrupt", tc.name, err)
			} else if !strings.Contains(err.Error(), "test.Journal") {
				t.Errorf("%s: error %q does not name the journal's stage", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if r.Tool != "t" || r.Truncated != tc.torn {
			t.Errorf("%s: tool %q, torn %d; want \"t\", %d", tc.name, r.Tool, r.Truncated, tc.torn)
		}
	}
}

// TestJournalSumGuardsEveryRecord: Append stamps a sum that Decode
// checks, so an edited interior record is corrupt even when it still
// parses and its owner would accept it.
func TestJournalSumGuardsEveryRecord(t *testing.T) {
	var n int
	jf := testFormat(&n)
	path := filepath.Join(t.TempDir(), "j")
	j, err := jf.Create(nil, path, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if err := j.Append(Record{Kind: KindStart, Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if n != 3 {
		t.Errorf("OnAppend ran %d times, want 3 (header + 2 records)", n)
	}
	data, err := OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Decode(data); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"key":"a"`, `"key":"z"`, 1)
	if _, err := jf.Decode([]byte(edited)); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("edited interior record: %v, want KindCorrupt", err)
	}
	if err := j.Append(Record{Kind: KindStart, Key: "c"}); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("append after close: %v, want KindInvalidInput", err)
	}
}
