package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"deesim/internal/runx"
)

// journalVersion is the on-disk format version written to (and required
// of) every journal header.
const journalVersion = 1

// Journal record kinds the framing itself owns. Every other kind
// (start, assign, expire, fail, ...) belongs to the package whose apply
// rules fold it into state.
const (
	// kindHeader is the kind of a journal's first record, which names
	// the writing tool and the run identity.
	kindHeader = "header"
	// KindDone marks a task or cell completion; the record carries its
	// JSON result payload. Resume compacts a journal down to these.
	KindDone = "done"
)

// Record is one line of a checksummed JSONL journal. A journal is a
// header followed by records appended in execution order; Kind selects
// which fields are meaningful. The supervisor (superv) and the fleet
// coordinator (coord) share this one shape. Every field is omitempty,
// and the field order is fixed, so each writes exactly the bytes it
// wrote before the two shared a Record, and old record sums verify.
type Record struct {
	Kind    string `json:"kind"`
	Version int    `json:"v,omitempty"` // header only
	Tool    string `json:"tool,omitempty"`
	// Meta carries run identity (config digest, matrix shape) so resume
	// can refuse a journal recorded under different settings.
	Meta map[string]string `json:"meta,omitempty"`

	Key     string `json:"key,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Lease   string `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Speculative marks a straggler-mitigation duplicate lease.
	Speculative bool            `json:"spec,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
	ErrKind     string          `json:"errkind,omitempty"`
	Retryable   bool            `json:"retryable,omitempty"`
	Reason      string          `json:"reason,omitempty"`

	// Sum is the record's own content digest (Digest over the record
	// marshaled with Sum empty), written by Append and verified on
	// replay. It extends torn-tail recovery to arbitrary mid-file
	// damage: without it a bit flip inside a Result payload replays as
	// a silently wrong completion; with it the flip reads as
	// KindCorrupt. Records without a sum (pre-integrity journals)
	// replay unverified.
	Sum string `json:"sum,omitempty"`
}

// encodeRecord marshals rec as one newline-terminated JSONL line with
// its content digest in the Sum field. The digest covers the record
// marshaled with Sum empty; verification re-marshals the decoded
// record the same way, which reproduces the written bytes exactly
// because encoding/json field order is fixed and RawMessage payloads
// round-trip verbatim.
func encodeRecord(rec Record) ([]byte, error) {
	rec.Sum = ""
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	rec.Sum = Digest(line)
	line, err = json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// verifyRecordSum checks a decoded record against its recorded Sum.
// Sum-less records are legacy and pass unverified.
func verifyRecordSum(rec Record) error {
	if rec.Sum == "" {
		return nil
	}
	sum := rec.Sum
	rec.Sum = ""
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := Verify(line, sum); err != nil {
		return fmt.Errorf("record sum: %w", err)
	}
	return nil
}

// JournalFormat is one journal flavour: what the shared framing needs
// from the package that owns the record kinds.
type JournalFormat struct {
	// Stage attributes every error, e.g. "superv.Journal".
	Stage string
	// OnAppend, if non-nil, runs after each fsync'd append (metrics).
	OnAppend func()
}

// Replay is the kind-independent digest of a journal replay. The
// owning package's apply function fills Done under its own rules;
// the framing fills the rest.
type Replay struct {
	Tool string
	Meta map[string]string
	// Done maps completed keys to their recorded result payloads.
	Done map[string]json.RawMessage
	// Truncated is the number of bytes of torn final record dropped
	// during recovery (0 for a cleanly closed journal).
	Truncated int
}

// Journal is an open, appendable journal. All methods are safe for
// concurrent use.
type Journal struct {
	mu     sync.Mutex
	format *JournalFormat
	f      File
	path   string
}

// Create starts a fresh journal at path (truncating any existing file),
// writing and fsync'ing the versioned header before returning. Opening
// a journal first sweeps the directory's stale temp files — debris a
// crashed writer left between TempFile and rename.
func (jf *JournalFormat) Create(fsys FS, path, tool string, meta map[string]string) (*Journal, error) {
	fsys = Or(fsys)
	SweepStale(fsys, filepath.Dir(path)) // counted in deesim_durable_stale_swept_total
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, runx.Newf(openKind(err), jf.Stage, "create %s: %w", path, err)
	}
	j := &Journal{format: jf, f: f, path: path}
	if err := j.Append(Record{Kind: kindHeader, Version: journalVersion, Tool: tool, Meta: meta}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// openKind classifies a journal create/open failure: a full disk is
// transient (free space and retry — callers park the run as
// interrupted), anything else at open time is the caller's path being
// wrong.
func openKind(err error) runx.Kind {
	if IsNoSpace(err) {
		return runx.KindUnavailable
	}
	return runx.KindInvalidInput
}

// writeKind classifies a mid-run write/fsync failure: ENOSPC is
// KindUnavailable (the journal's durable prefix is intact; the run can
// resume once space frees), any other I/O error means the file's state
// is no longer trustworthy — KindCorrupt.
func writeKind(err error) runx.Kind {
	if IsNoSpace(err) {
		return runx.KindUnavailable
	}
	return runx.KindCorrupt
}

// Append marshals rec as one JSONL line with its content digest in the
// sum field, writes it, and fsyncs before returning — the durability
// contract every record relies on.
func (j *Journal) Append(rec Record) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return runx.Newf(runx.KindInvalidInput, j.format.Stage, "marshal %s record: %w", rec.Kind, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return runx.Newf(runx.KindInvalidInput, j.format.Stage, "append to closed journal %s", j.path)
	}
	if _, err := j.f.Write(line); err != nil {
		return runx.Newf(writeKind(err), j.format.Stage, "write %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return runx.Newf(writeKind(err), j.format.Stage, "fsync %s: %w", j.path, err)
	}
	if j.format.OnAppend != nil {
		j.format.OnAppend()
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Load reads the journal at path and replays it (see Decode).
func (jf *JournalFormat) Load(fsys FS, path string, r *Replay, apply func(Record) error) error {
	data, err := Or(fsys).ReadFile(path)
	if err != nil {
		return runx.Newf(runx.KindInvalidInput, jf.Stage, "read %s: %w", path, err)
	}
	return jf.Decode(data, r, apply)
}

// Decode replays in-memory journal bytes into r, handing every record
// after the header to apply. Recovery tolerates exactly one failure
// mode — a torn final record from a crash mid-write: a final line that
// is unterminated, unparsable, fails its sum, or is refused by apply is
// dropped and counted in r.Truncated. Any other damage (a missing or
// wrong-version header, a bad record before the final line) is a typed
// *runx.Error of kind KindCorrupt, because a journal damaged mid-file
// cannot be trusted to say what completed. Decode never panics on
// arbitrary bytes; the journal fuzzers hold it to that.
func (jf *JournalFormat) Decode(data []byte, r *Replay, apply func(Record) error) error {
	rest := data
	sawHeader := false
	lineNo := 0
	for len(rest) > 0 {
		// An unterminated final chunk is torn by definition: Append
		// writes each record with its newline in one write.
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			r.Truncated = len(rest)
			break
		}
		line, isLast := rest[:nl], nl+1 == len(rest)
		rest = rest[nl+1:]
		lineNo++
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		err := json.Unmarshal(line, &rec)
		if err == nil {
			if err = verifyRecordSum(rec); err != nil && !isLast {
				NoteCorrupt()
			}
		}
		switch {
		case err != nil:
		case !sawHeader:
			if rec.Kind != kindHeader {
				return runx.Newf(runx.KindCorrupt, jf.Stage, "line %d: first record is %q, want header", lineNo, rec.Kind)
			}
			if rec.Version != journalVersion {
				return runx.Newf(runx.KindCorrupt, jf.Stage, "journal version %d, this build reads %d", rec.Version, journalVersion)
			}
			r.Tool, r.Meta = rec.Tool, rec.Meta
			sawHeader = true
		case rec.Kind == kindHeader:
			err = fmt.Errorf("second header record")
		default:
			err = apply(rec)
		}
		if err == nil {
			continue
		}
		if isLast {
			// A terminated but bad final line is recoverable the same way
			// a torn one is: a crash can tear a record and a later writer
			// append the newline, or the tail bytes were damaged. Drop it
			// and re-run whatever it recorded.
			r.Truncated = len(line) + 1
			break
		}
		return runx.Newf(runx.KindCorrupt, jf.Stage, "line %d: %w", lineNo, err)
	}
	if !sawHeader {
		return runx.Newf(runx.KindCorrupt, jf.Stage, "no journal header (empty or truncated before the header record)")
	}
	return nil
}

// Resume reopens a replayed journal for a continued run: it verifies
// the header names the same tool and agrees with meta on every key
// both carry, then writes a compacted checkpoint — header plus one done
// record per completed key — to a temp file and atomically renames it
// over the journal before reopening for append. The checkpoint bounds
// journal growth across repeated crashes and guarantees the resumed
// file starts from a clean, fully-terminated prefix.
func (jf *JournalFormat) Resume(fsys FS, path, tool string, meta map[string]string, r *Replay) (*Journal, error) {
	fsys = Or(fsys)
	if r.Tool != tool {
		return nil, runx.Newf(runx.KindCorrupt, jf.Stage,
			"journal %s was recorded by %q, not %q", path, r.Tool, tool)
	}
	for k, v := range r.Meta {
		// Keys absent from this run are ignored, so fields added between
		// versions do not poison old journals.
		if want, ok := meta[k]; ok && want != v {
			return nil, runx.Newf(runx.KindInvalidInput, jf.Stage,
				"journal %s was recorded with %s=%q, this run has %q (start a fresh journal instead)", path, k, v, want)
		}
	}
	SweepStale(fsys, filepath.Dir(path))
	tmp, err := TempFile(fsys, path, "ckpt")
	if err != nil {
		return nil, runx.Newf(openKind(err), jf.Stage, "checkpoint temp: %w", err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	writeRec := func(rec Record) error {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		_, err = w.Write(line)
		return err
	}
	err = writeRec(Record{Kind: kindHeader, Version: journalVersion, Tool: r.Tool, Meta: r.Meta})
	keys := make([]string, 0, len(r.Done))
	for k := range r.Done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err != nil {
			break
		}
		err = writeRec(Record{Kind: KindDone, Key: k, Attempt: 1, Result: r.Done[k]})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, runx.Newf(writeKind(err), jf.Stage, "write checkpoint: %w", err)
	}
	if err := RenameAndSync(fsys, tmp.Name(), path); err != nil {
		return nil, runx.Newf(writeKind(err), jf.Stage, "swap checkpoint: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, runx.Newf(openKind(err), jf.Stage, "reopen %s: %w", path, err)
	}
	return &Journal{format: jf, f: f, path: path}, nil
}
