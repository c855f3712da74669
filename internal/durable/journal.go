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

// Journal record kinds. The framing owns the header; State.apply folds
// every other kind. A record either begins an attempt at a key (start
// in a superv run journal, assign in a coordinator journal), ends one
// without completing it (fail, expire), or completes the key (done).
const (
	// kindHeader is the kind of a journal's first record, which names
	// the writing tool and the run identity.
	kindHeader = "header"
	// KindStart marks a supervised task attempt beginning.
	KindStart = "start"
	// KindAssign marks a lease grant: the cell was durably assigned to a
	// worker before the dispatch RPC left the coordinator.
	KindAssign = "assign"
	// KindDone marks a task or cell completion; the record carries its
	// JSON result payload. Resume compacts a journal down to these.
	KindDone = "done"
	// KindFail marks an attempt failing with a typed error; the record
	// carries the error text, its runx kind, and whether it was deemed
	// retryable.
	KindFail = "fail"
	// KindExpire marks a lease the coordinator revoked (TTL passed,
	// heartbeat lost, dispatch failed); the cell returns to pending.
	KindExpire = "expire"
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

// JournalFormat is one journal flavour: the stage its errors carry, its
// append instrumentation and its resume digest. Every flavour replays
// through the one State.apply.
type JournalFormat struct {
	// Stage attributes every error, e.g. "superv.Journal".
	Stage string
	// OnAppend, if non-nil, runs after each fsync'd append (metrics).
	OnAppend func()
	// Summary renders a replayed state as the one-line progress digest
	// the owning package logs on resume; total is the run's key count.
	Summary func(st *State, total int) string
}

// State is the digest of a journal replay.
type State struct {
	Tool string
	Meta map[string]string
	// Done maps completed keys to their recorded result payloads. The
	// first durable done record for a key wins.
	Done map[string]json.RawMessage
	// Attempts maps keys that were begun (and possibly failed or
	// expired) but never completed to the highest attempt number the
	// journal records. Keys here were in flight when the writer
	// stopped; a resumed run re-queues them.
	Attempts map[string]int
	// Duplicates counts done records discarded because an earlier done
	// record for the same key was already durable.
	Duplicates int
	// Truncated is the number of bytes of torn final record dropped
	// during recovery (0 for a cleanly closed journal).
	Truncated int
}

func newState() *State {
	return &State{Done: make(map[string]json.RawMessage), Attempts: make(map[string]int)}
}

// apply folds one post-header record into the state. An attempt-begun
// record without an attempt number counts one more attempt; an
// attempt-ended record only raises the count to the attempt it names.
// Records for a key already done change nothing but the duplicate
// count.
func (st *State) apply(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("%s record without a key", rec.Kind)
	}
	_, done := st.Done[rec.Key]
	switch rec.Kind {
	case KindStart, KindAssign:
		if !done {
			if rec.Attempt > st.Attempts[rec.Key] {
				st.Attempts[rec.Key] = rec.Attempt
			} else if rec.Attempt <= 0 {
				st.Attempts[rec.Key]++
			}
		}
	case KindFail, KindExpire:
		if !done && rec.Attempt > st.Attempts[rec.Key] {
			st.Attempts[rec.Key] = rec.Attempt
		}
	case KindDone:
		if len(rec.Result) == 0 {
			return fmt.Errorf("done record for %s without a result payload", rec.Key)
		}
		if done {
			st.Duplicates++
			return nil
		}
		st.Done[rec.Key] = rec.Result
		delete(st.Attempts, rec.Key)
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
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
func (jf *JournalFormat) Load(fsys FS, path string) (*State, error) {
	data, err := Or(fsys).ReadFile(path)
	if err != nil {
		return nil, runx.Newf(runx.KindInvalidInput, jf.Stage, "read %s: %w", path, err)
	}
	return jf.Decode(data)
}

// Decode replays in-memory journal bytes into a State, folding every
// record after the header through State.apply. Recovery tolerates
// exactly one failure mode — a torn final record from a crash
// mid-write: a final line that is unterminated, unparsable, fails its
// sum, or is refused by apply is dropped and counted in
// State.Truncated. Any other damage (a missing or
// wrong-version header, a bad record before the final line) is a typed
// *runx.Error of kind KindCorrupt, because a journal damaged mid-file
// cannot be trusted to say what completed. Decode never panics on
// arbitrary bytes; the journal fuzzers hold it to that.
func (jf *JournalFormat) Decode(data []byte) (*State, error) {
	r := newState()
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
				return nil, runx.Newf(runx.KindCorrupt, jf.Stage, "line %d: first record is %q, want header", lineNo, rec.Kind)
			}
			if rec.Version != journalVersion {
				return nil, runx.Newf(runx.KindCorrupt, jf.Stage, "journal version %d, this build reads %d", rec.Version, journalVersion)
			}
			r.Tool, r.Meta = rec.Tool, rec.Meta
			sawHeader = true
		case rec.Kind == kindHeader:
			err = fmt.Errorf("second header record")
		default:
			err = r.apply(rec)
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
		return nil, runx.Newf(runx.KindCorrupt, jf.Stage, "line %d: %w", lineNo, err)
	}
	if !sawHeader {
		return nil, runx.Newf(runx.KindCorrupt, jf.Stage, "no journal header (empty or truncated before the header record)")
	}
	return r, nil
}

// Resume reopens the journal at path for a continued run: it replays
// it (tolerating a torn tail), verifies the header names the same tool
// and agrees with meta on every key both carry, then writes a
// compacted checkpoint — header plus one done record per completed key
// — to a temp file and atomically renames it over the journal before
// reopening for append. The checkpoint bounds journal growth across
// repeated crashes and guarantees the resumed file starts from a
// clean, fully-terminated prefix. It returns the reopened journal and
// the replayed state.
func (jf *JournalFormat) Resume(fsys FS, path, tool string, meta map[string]string) (*Journal, *State, error) {
	fsys = Or(fsys)
	r, err := jf.Load(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	if r.Tool != tool {
		return nil, nil, runx.Newf(runx.KindCorrupt, jf.Stage,
			"journal %s was recorded by %q, not %q", path, r.Tool, tool)
	}
	for k, v := range r.Meta {
		// Keys absent from this run are ignored, so fields added between
		// versions do not poison old journals.
		if want, ok := meta[k]; ok && want != v {
			return nil, nil, runx.Newf(runx.KindInvalidInput, jf.Stage,
				"journal %s was recorded with %s=%q, this run has %q (start a fresh journal instead)", path, k, v, want)
		}
	}
	SweepStale(fsys, filepath.Dir(path))
	tmp, err := TempFile(fsys, path, "ckpt")
	if err != nil {
		return nil, nil, runx.Newf(openKind(err), jf.Stage, "checkpoint temp: %w", err)
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
		return nil, nil, runx.Newf(writeKind(err), jf.Stage, "write checkpoint: %w", err)
	}
	if err := RenameAndSync(fsys, tmp.Name(), path); err != nil {
		return nil, nil, runx.Newf(writeKind(err), jf.Stage, "swap checkpoint: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, runx.Newf(openKind(err), jf.Stage, "reopen %s: %w", path, err)
	}
	return &Journal{format: jf, f: f, path: path}, r, nil
}
