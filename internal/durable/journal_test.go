package durable

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/runx"
)

// testFormat is a journal flavour whose apply accepts "ok" records and
// refuses everything else, so the framing rules are visible on their
// own.
func testFormat(appends *int) (*JournalFormat, func(Record) error) {
	jf := &JournalFormat{Stage: "test.Journal", OnAppend: func() { *appends++ }}
	return jf, func(rec Record) error {
		if rec.Kind != "ok" {
			return errors.New("refused")
		}
		return nil
	}
}

func TestJournalFramingRules(t *testing.T) {
	const hdr = `{"kind":"header","v":1,"tool":"t"}` + "\n"
	const ok = `{"kind":"ok","key":"a"}` + "\n"
	const bad = `{"kind":"bad","key":"a"}` + "\n"
	cases := []struct {
		name, data string
		torn       int  // want Truncated
		corrupt    bool // want a KindCorrupt error
	}{
		{"header only", hdr, 0, false},
		{"records", hdr + ok + ok, 0, false},
		{"unterminated tail", hdr + ok + `{"kind":"ok"`, len(`{"kind":"ok"`), false},
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
	jf, apply := testFormat(&n)
	for _, tc := range cases {
		var r Replay
		err := jf.Decode([]byte(tc.data), &r, apply)
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
	jf, apply := testFormat(&n)
	path := filepath.Join(t.TempDir(), "j")
	j, err := jf.Create(nil, path, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if err := j.Append(Record{Kind: "ok", Key: key}); err != nil {
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
	if err := jf.Decode(data, &Replay{}, apply); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"key":"a"`, `"key":"z"`, 1)
	if err := jf.Decode([]byte(edited), &Replay{}, apply); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("edited interior record: %v, want KindCorrupt", err)
	}
	if err := j.Append(Record{Kind: "ok", Key: "c"}); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("append after close: %v, want KindInvalidInput", err)
	}
}
