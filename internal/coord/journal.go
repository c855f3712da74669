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
	"fmt"

	"deesim/internal/durable"
)

// Coordinator journal record kinds. A journal is a header followed by
// assign/done/expire/fail records appended in dispatch order.
const (
	// KindAssign marks a lease grant: the cell was durably assigned to a
	// worker before the dispatch RPC left the coordinator.
	KindAssign = durable.KindAssign
	// KindDone marks a cell completion; the record carries the worker's
	// CellResult payload verbatim. The first durable done record for a
	// key wins — later completions of the same key are duplicates.
	KindDone = durable.KindDone
	// KindExpire marks a lease the coordinator revoked (TTL passed,
	// heartbeat lost, dispatch failed); the cell returns to the pending
	// queue.
	KindExpire = durable.KindExpire
	// KindFail marks a cell attempt failing with a typed error; the
	// supervisor decides from Retryable whether the cell re-queues.
	KindFail = durable.KindFail
)

// Record is one coordinator journal line.
type Record = durable.Record

// Journal is an open, appendable coordinator journal. Safe for
// concurrent use.
type Journal = durable.Journal

// State is the digest of a coordinator journal replay: Done holds the
// first completion recorded for each cell key, Attempts the cells
// that were in flight, Duplicates the completions discarded.
type State = durable.State

// JournalFormat is the coordinator journal's flavour of the shared
// framing.
var JournalFormat = &durable.JournalFormat{
	Stage:    "coord.Journal",
	OnAppend: mJournalFsyncs.Inc,
	Summary: func(st *State, total int) string {
		return fmt.Sprintf("%d/%d cells journaled complete, %d in flight at crash, %d duplicate(s), %d torn byte(s) recovered",
			len(st.Done), total, len(st.Attempts), st.Duplicates, st.Truncated)
	},
}

// Create starts a fresh journal at path, fsync'ing the versioned
// header before returning.
func Create(path, tool string, meta map[string]string) (*Journal, error) {
	return JournalFormat.Create(nil, path, tool, meta)
}

// Load replays the journal at path into a State, tolerating a torn
// final record (see Decode).
func Load(path string) (*State, error) {
	return LoadFS(nil, path)
}

// LoadFS is Load on an injectable filesystem (nil = the real one).
func LoadFS(fsys durable.FS, path string) (*State, error) {
	return JournalFormat.Load(fsys, path)
}

// Decode replays in-memory journal bytes. A torn or damaged final
// record is dropped and counted in State.Truncated; any other damage
// is a typed KindCorrupt error (durable.JournalFormat.Decode).
func Decode(data []byte) (*State, error) {
	return JournalFormat.Decode(data)
}

// Resume reopens a coordinator journal for a continued sweep: replay
// (tolerating a torn tail), verify tool and meta identity, and compact
// to header + one done record per completed cell before reopening for
// append (durable.JournalFormat.Resume).
func Resume(path, tool string, meta map[string]string) (*Journal, *State, error) {
	return JournalFormat.Resume(nil, path, tool, meta)
}
