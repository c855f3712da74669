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
// are durable's shared journal, and so is the replay into a State;
// this package names the start/done/fail record kinds it writes.
package superv

import (
	"fmt"

	"deesim/internal/durable"
)

// Record kinds. A journal is a header line followed by start/done/fail
// records appended in execution order.
const (
	// KindStart marks a task attempt beginning.
	KindStart = durable.KindStart
	// KindDone marks a task attempt finishing successfully; the record
	// carries the task's JSON result payload.
	KindDone = durable.KindDone
	// KindFail marks a task attempt failing; the record carries the
	// error text, its runx kind, and whether the supervisor deemed it
	// retryable.
	KindFail = durable.KindFail
)

// Record is one journal line; Kind selects which fields are meaningful.
type Record = durable.Record

// Journal is an open, appendable run journal. All methods are safe for
// concurrent use.
type Journal = durable.Journal

// State is the digest of a journal replay: which tasks completed (with
// their first recorded result payloads, in Done), which were started
// or failed without completing (Attempts), and how many torn-tail bytes
// recovery dropped.
type State = durable.State

// JournalFormat is the run journal's flavour of the shared framing.
var JournalFormat = &durable.JournalFormat{
	Stage: "superv.Journal",
	OnAppend: func() {
		mJournalRecords.Inc()
		mJournalFsyncs.Inc()
	},
	Summary: Summary,
}

// Summary renders a one-line progress digest of a replayed state.
func Summary(st *State, total int) string {
	return fmt.Sprintf("%d/%d tasks journaled complete, %d pending, %d torn byte(s) recovered",
		len(st.Done), total, len(st.Attempts), st.Truncated)
}

// Create starts a fresh journal at path (truncating any existing file),
// writing and fsync'ing the versioned header before returning.
func Create(path, tool string, meta map[string]string) (*Journal, error) {
	return JournalFormat.Create(nil, path, tool, meta)
}

// Load replays the journal at path into a State (see Decode).
func Load(path string) (*State, error) {
	return LoadFS(nil, path)
}

// LoadFS is Load on an injectable filesystem (nil = the real one).
func LoadFS(fsys durable.FS, path string) (*State, error) {
	return JournalFormat.Load(fsys, path)
}

// Decode replays in-memory journal bytes. A torn or damaged final
// record is dropped and counted in State.Truncated; any other damage
// is a typed *runx.Error of kind KindCorrupt (durable.JournalFormat.Decode).
func Decode(data []byte) (*State, error) {
	return JournalFormat.Decode(data)
}

// Resume reopens the journal at path for a continued run: it replays
// the existing records (tolerating a torn tail), verifies the header
// names the same tool and meta, and compacts the file to the header
// plus one done record per completed task before reopening it for
// append (durable.JournalFormat.Resume). Returns the reopened journal
// and the replayed state.
func Resume(path, tool string, meta map[string]string) (*Journal, *State, error) {
	return JournalFormat.Resume(nil, path, tool, meta)
}
