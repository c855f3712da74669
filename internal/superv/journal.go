// Package superv is the crash-safe experiment supervisor: it runs an
// addressable set of tasks on a bounded worker pool, records every task
// start/finish to a durable append-only JSONL run journal, retries
// retryable failures with deterministic seeded backoff, and gates
// reproduced results against golden baselines.
//
// The journal is the durability backbone. Every record is one JSON
// object per line, fsync'd before the supervisor proceeds, so a crash —
// OOM, SIGKILL, power loss — loses at most the record being written.
// The framing, integrity sums, torn-tail recovery and resume compaction
// are durable's shared journal; this package owns only the start/done/
// fail record kinds and how they fold into a State.
package superv

import (
	"encoding/json"
	"fmt"

	"deesim/internal/durable"
)

// Record kinds. A journal is a header line followed by start/done/fail
// records appended in execution order.
const (
	// KindStart marks a task attempt beginning.
	KindStart = "start"
	// KindDone marks a task attempt finishing successfully; the record
	// carries the task's JSON result payload.
	KindDone = durable.KindDone
	// KindFail marks a task attempt failing; the record carries the
	// error text, its runx kind, and whether the supervisor deemed it
	// retryable.
	KindFail = "fail"
)

// Record is one journal line; Kind selects which fields are meaningful.
type Record = durable.Record

// Journal is an open, appendable run journal. All methods are safe for
// concurrent use.
type Journal = durable.Journal

var journalFormat = &durable.JournalFormat{
	Stage: "superv.Journal",
	OnAppend: func() {
		mJournalRecords.Inc()
		mJournalFsyncs.Inc()
	},
}

// State is the digest of a journal replay: which tasks completed (with
// their result payloads, in Done), which were started or failed without
// completing, and how many torn-tail bytes recovery dropped.
type State struct {
	durable.Replay
	// Pending maps task keys that were started or failed but never
	// completed to the number of attempts the journal records for them.
	Pending map[string]int
}

func newState() *State {
	return &State{Replay: durable.Replay{Done: make(map[string]json.RawMessage)}, Pending: make(map[string]int)}
}

// Create starts a fresh journal at path (truncating any existing file),
// writing and fsync'ing the versioned header before returning.
func Create(path, tool string, meta map[string]string) (*Journal, error) {
	return CreateFS(nil, path, tool, meta)
}

// CreateFS is Create on an injectable filesystem (nil = the real one).
func CreateFS(fsys durable.FS, path, tool string, meta map[string]string) (*Journal, error) {
	return journalFormat.Create(fsys, path, tool, meta)
}

// Load replays the journal at path into a State (see Decode).
func Load(path string) (*State, error) {
	return LoadFS(nil, path)
}

// LoadFS is Load on an injectable filesystem (nil = the real one).
func LoadFS(fsys durable.FS, path string) (*State, error) {
	st := newState()
	if err := journalFormat.Load(fsys, path, &st.Replay, st.apply); err != nil {
		return nil, err
	}
	return st, nil
}

// Decode replays in-memory journal bytes. A torn or damaged final
// record is dropped and counted in State.Truncated; any other damage
// is a typed *runx.Error of kind KindCorrupt (durable.JournalFormat.Decode).
func Decode(data []byte) (*State, error) {
	st := newState()
	if err := journalFormat.Decode(data, &st.Replay, st.apply); err != nil {
		return nil, err
	}
	return st, nil
}

// apply folds one post-header record into the state.
func (st *State) apply(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("%s record without a task key", rec.Kind)
	}
	switch rec.Kind {
	case KindStart:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Pending[rec.Key] {
				st.Pending[rec.Key] = rec.Attempt
			} else if rec.Attempt <= 0 {
				st.Pending[rec.Key]++
			}
		}
	case KindDone:
		if len(rec.Result) == 0 {
			return fmt.Errorf("done record for %s without a result payload", rec.Key)
		}
		st.Done[rec.Key] = rec.Result
		delete(st.Pending, rec.Key)
	case KindFail:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Pending[rec.Key] {
				st.Pending[rec.Key] = rec.Attempt
			}
		}
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// Resume reopens the journal at path for a continued run: it replays
// the existing records (tolerating a torn tail), verifies the header
// names the same tool and meta, and compacts the file to the header
// plus one done record per completed task before reopening it for
// append (durable.JournalFormat.Resume). Returns the reopened journal
// and the replayed state.
func Resume(path, tool string, meta map[string]string) (*Journal, *State, error) {
	return ResumeFS(nil, path, tool, meta)
}

// ResumeFS is Resume on an injectable filesystem (nil = the real one).
func ResumeFS(fsys durable.FS, path, tool string, meta map[string]string) (*Journal, *State, error) {
	st, err := LoadFS(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	j, err := journalFormat.Resume(fsys, path, tool, meta, &st.Replay)
	if err != nil {
		return nil, nil, err
	}
	return j, st, nil
}
