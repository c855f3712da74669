// Package coord is the distributed-sweep control plane: a coordinator
// that decomposes a matrix sweep into cells (the same task
// decomposition as a single-node journaled run), leases cells to
// registered deesimd workers with time-bounded leases, re-dispatches
// cells whose leases expire (worker crash, partition, or stall), and
// merges the returned results through the exact aggregation path a
// single-node run uses — so the merged tables are byte-identical.
//
// Durability follows the superv discipline on durable's shared
// journal: every assignment and completion is one fsync'd JSONL record,
// so a SIGKILL'd coordinator resumes its sweep from the journal without
// re-running finished cells. Recovery tolerates exactly one failure
// mode — a torn final record — and treats any other damage as a typed
// KindCorrupt error.
package coord

import (
	"encoding/json"
	"fmt"

	"deesim/internal/durable"
)

// Coordinator journal record kinds. A journal is a header followed by
// assign/done/expire/fail records appended in dispatch order.
const (
	// KindAssign marks a lease grant: the cell was durably assigned to a
	// worker before the dispatch RPC left the coordinator.
	KindAssign = "assign"
	// KindDone marks a cell completion; the record carries the worker's
	// CellResult payload verbatim. The first durable done record for a
	// key wins — later completions of the same key are duplicates.
	KindDone = durable.KindDone
	// KindExpire marks a lease the coordinator revoked (TTL passed,
	// heartbeat lost, dispatch failed); the cell returns to the pending
	// queue.
	KindExpire = "expire"
	// KindFail marks a cell attempt failing with a typed error; the
	// supervisor decides from Retryable whether the cell re-queues.
	KindFail = "fail"
)

// Record is one coordinator journal line.
type Record = durable.Record

// Journal is an open, appendable coordinator journal. Safe for
// concurrent use.
type Journal = durable.Journal

var journalFormat = &durable.JournalFormat{
	Stage:    "coord.Journal",
	OnAppend: mJournalFsyncs.Inc,
}

// State is the digest of a coordinator journal replay. Done holds the
// first completion recorded for each cell key.
type State struct {
	durable.Replay
	// Attempts maps cell keys that were assigned (and possibly expired
	// or failed) to the highest attempt number the journal records.
	// Cells present here but not in Done were in flight when the
	// coordinator died; resume re-queues them.
	Attempts map[string]int
	// Duplicates counts completions discarded because an identical
	// result was already durable for the key.
	Duplicates int
}

func newState() *State {
	return &State{Replay: durable.Replay{Done: make(map[string]json.RawMessage)}, Attempts: make(map[string]int)}
}

// Create starts a fresh journal at path, fsync'ing the versioned
// header before returning.
func Create(path, tool string, meta map[string]string) (*Journal, error) {
	return CreateFS(nil, path, tool, meta)
}

// CreateFS is Create on an injectable filesystem (nil = the real one).
func CreateFS(fsys durable.FS, path, tool string, meta map[string]string) (*Journal, error) {
	return journalFormat.Create(fsys, path, tool, meta)
}

// Load replays the journal at path into a State, tolerating a torn
// final record (see Decode).
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
// is a typed KindCorrupt error (durable.JournalFormat.Decode).
func Decode(data []byte) (*State, error) {
	st := newState()
	if err := journalFormat.Decode(data, &st.Replay, st.apply); err != nil {
		return nil, err
	}
	return st, nil
}

// apply folds one post-header record into the state. The first done
// record for a key wins — that is the deterministic duplicate rule the
// live coordinator follows, replayed identically here.
func (st *State) apply(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("%s record without a cell key", rec.Kind)
	}
	switch rec.Kind {
	case KindAssign:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Attempts[rec.Key] {
				st.Attempts[rec.Key] = rec.Attempt
			} else if rec.Attempt <= 0 {
				st.Attempts[rec.Key]++
			}
		}
	case KindDone:
		if len(rec.Result) == 0 {
			return fmt.Errorf("done record for %s without a result payload", rec.Key)
		}
		if _, dup := st.Done[rec.Key]; dup {
			st.Duplicates++
			return nil
		}
		st.Done[rec.Key] = rec.Result
		delete(st.Attempts, rec.Key)
	case KindExpire, KindFail:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Attempts[rec.Key] {
				st.Attempts[rec.Key] = rec.Attempt
			}
		}
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// Resume reopens a coordinator journal for a continued sweep: replay
// (tolerating a torn tail), verify tool and meta identity, and compact
// to header + one done record per completed cell before reopening for
// append (durable.JournalFormat.Resume).
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

// Summary renders a one-line progress digest of a replayed state.
func (st *State) Summary(total int) string {
	return fmt.Sprintf("%d/%d cells journaled complete, %d in flight at crash, %d duplicate(s), %d torn byte(s) recovered",
		len(st.Done), total, len(st.Attempts), st.Duplicates, st.Truncated)
}
