package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deesim/internal/durable"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

// Store is the durable job store both sweep daemons share: one state
// subdirectory of per-submission records (<Root>/<noun>s/<id>/ holding
// spec.json, the run's journal, result.json and failed.json), the
// in-memory index over it, and every rule about that state the daemons
// must agree on — crash recovery, spec persistence before the ack, the
// terminal-state write order, the low-disk latch, and the HTTP
// envelope with the list/status/result handlers. deesimd (Server) and
// deesim-coord (coord.Coordinator) each embed one; what differs between
// them — class lanes and brownout, or leases and the worker registry —
// stays in the daemon.
type Store struct {
	cfg StoreConfig
	dir string // Root/<noun>s

	// degraded is set when a durable write hits ENOSPC: the daemon sheds
	// new work until a probe write succeeds, so disk pressure never
	// corrupts accepted state.
	degraded atomic.Bool

	mu      sync.Mutex
	records map[string]*Record
	order   []string // submission/recovery order
	seq     int
}

// StoreConfig names the daemon that owns a Store and hands it the
// daemon's own instruments and hooks.
type StoreConfig struct {
	// Root is the daemon's state directory.
	Root string
	// Daemon prefixes every log line ("deesimd"). Noun names one record
	// in logs and errors ("job"); its plural is the state subdirectory
	// and its first letter the id prefix (j000001).
	Daemon, Noun string
	// Stage labels the typed errors the store returns ("server").
	Stage string
	// DegradedNote is the parenthesized tail of the log line that
	// announces low-disk mode.
	DegradedNote string
	// RetryAfter is the backoff hint sent with 429/503 responses.
	RetryAfter time.Duration
	FS         durable.FS
	Logf       func(format string, args ...any)
	// Logger receives the structured access log; Frags, if non-nil,
	// records the spans of traced requests.
	Logger *slog.Logger
	Frags  *obs.FragmentLog
	// ObserveHTTP records one served request under the daemon's own
	// metric series.
	ObserveHTTP func(endpoint string, status int, d time.Duration)
	// AccessJobID adds the addressed job id to access-log lines.
	AccessJobID bool
	Counters    StoreCounters
	// Heal, if non-nil, sends a record whose result failed its
	// read-time integrity check back through the run path and reports
	// whether it did. Nil leaves the re-run to the next restart's
	// recovery scan.
	Heal func(id string) bool
	// OnDegraded, if non-nil, observes every low-disk latch transition.
	OnDegraded func(on bool)
}

// StoreCounters are the daemon's own instruments the store bumps.
type StoreCounters struct {
	Done, Failed *obs.Counter
	Interrupted  *obs.Counter // may be nil
	Quarantined  *obs.Counter // artifacts moved to .quarantine/
	Healed       *obs.Counter // quarantined records re-entered into the run path
	LowDisk      *obs.Gauge   // 1 while degraded
}

// Record is the in-memory state of one submission. ID, Spec and
// CellsTotal are fixed at creation; every other field is guarded by the
// store's lock — read it through Status or Snapshot.
type Record struct {
	ID         string
	Spec       Spec
	CellsTotal int

	State     string
	Enqueued  time.Time // when the record entered its queue (queue-wait span)
	CellsDone int
	Resumed   bool // re-queued by crash recovery or healing
	ErrText   string
	ErrKind   string
}

// TraceCtx parses the trace context persisted with the spec, so a
// resumed run rejoins the trace its submission minted.
func (r *Record) TraceCtx() (obs.TraceContext, bool) {
	return obs.ParseTraceparent(r.Spec.Trace)
}

// NewStore opens the store under cfg.Root and recovers what a previous
// process left behind. It returns the records that must be re-queued:
// neither a result nor a permanent failure is on disk for them.
func NewStore(cfg StoreConfig) (*Store, []*Record, error) {
	if cfg.Root == "" {
		return nil, nil, runx.Newf(runx.KindInvalidInput, cfg.Stage, "empty state directory")
	}
	cfg.FS = durable.Or(cfg.FS)
	st := &Store{
		cfg:     cfg,
		dir:     filepath.Join(cfg.Root, cfg.Noun+"s"),
		records: make(map[string]*Record),
	}
	if err := cfg.FS.MkdirAll(st.dir, 0o755); err != nil {
		return nil, nil, runx.Newf(runx.KindInvalidInput, cfg.Stage, "state dir: %w", err)
	}
	cfg.FS.SyncDir(cfg.Root)
	pending, err := st.recover()
	if err != nil {
		return nil, nil, err
	}
	return st, pending, nil
}

func (st *Store) logf(format string, args ...any) {
	st.cfg.Logf(st.cfg.Daemon+": "+format, args...)
}

// recover scans the state subdirectory and rebuilds the index. Every
// artifact recovery trusts is digest-verified first: a corrupt
// result.json or failed.json is quarantined and its record re-queued
// (the sweep is deterministic — heal by re-execution), a corrupt
// spec.json is quarantined and the record skipped (the spec was the
// input; there is nothing to re-run from). Stale temp files from
// crashed writers are swept while no writer can be mid-flight.
func (st *Store) recover() ([]*Record, error) {
	fsys, noun := st.cfg.FS, st.cfg.Noun
	durable.SweepStale(fsys, st.dir)
	entries, err := fsys.ReadDir(st.dir)
	if err != nil {
		return nil, runx.Newf(runx.KindInvalidInput, st.cfg.Stage, "scan %s: %w", st.dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && e.Name() != durable.QuarantineDir {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // ids are zero-padded: lexicographic == submission order
	var pending []*Record
	for _, id := range names {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, noun[:1])); err == nil && n > st.seq {
			st.seq = n
		}
		dir := st.Dir(id)
		durable.SweepStale(fsys, dir)
		specData, err := durable.ReadFileVerified(fsys, filepath.Join(dir, "spec.json"))
		if err != nil {
			if runx.IsKind(err, runx.KindCorrupt) {
				qp, _ := durable.Quarantine(fsys, filepath.Join(dir, "spec.json"))
				st.cfg.Counters.Quarantined.Inc()
				st.logf("recovery: %s %s spec corrupt, quarantined to %s: %v", noun, id, qp, err)
			} else {
				st.logf("recovery: %s %s has no readable spec, skipping: %v", noun, id, err)
			}
			continue
		}
		var sp Spec
		if err := json.Unmarshal(specData, &sp); err != nil {
			st.logf("recovery: %s %s spec unparsable, skipping: %v", noun, id, err)
			continue
		}
		rec := &Record{ID: id, Spec: sp, CellsTotal: sp.CellsTotal()}
		// Both artifacts are checked, so a rotted failed.json beside a
		// valid result is quarantined too rather than left for fsck.
		resultOK := st.verifyOrQuarantine(id, filepath.Join(dir, "result.json"))
		failedOK := st.verifyOrQuarantine(id, filepath.Join(dir, "failed.json"))
		switch {
		case resultOK:
			rec.State = StateDone
			rec.CellsDone = rec.CellsTotal
		case failedOK:
			rec.State = StateFailed
			var f struct{ Error, Kind string }
			if data, err := fsys.ReadFile(filepath.Join(dir, "failed.json")); err == nil {
				if json.Unmarshal(data, &f) == nil {
					rec.ErrText, rec.ErrKind = f.Error, f.Kind
				}
			}
		default:
			rec.State = StateQueued
			rec.Resumed = true
			pending = append(pending, rec)
		}
		st.records[id] = rec
		st.order = append(st.order, id)
	}
	if len(pending) > 0 {
		st.logf("recovery: re-queued %d incomplete %s(s)", len(pending), noun)
	}
	return pending, nil
}

// verifyOrQuarantine reports whether a terminal-state artifact exists
// and passes its digest check. A corrupt artifact is quarantined and
// reported absent, which sends the record back through the run path —
// the heal-by-rerun move the integrity layer is built around.
func (st *Store) verifyOrQuarantine(id, path string) bool {
	if !st.Exists(path) {
		return false
	}
	if _, err := durable.ReadFileVerified(st.cfg.FS, path); err != nil {
		noun := st.cfg.Noun
		qp, qerr := durable.Quarantine(st.cfg.FS, path)
		if qerr != nil {
			st.logf("%s %s: %s corrupt and quarantine failed (%v); treating as absent: %v", noun, id, filepath.Base(path), qerr, err)
			return false
		}
		st.cfg.Counters.Quarantined.Inc()
		st.cfg.Counters.Healed.Inc()
		durable.NoteHealed()
		st.logf("%s %s: %s failed integrity check, quarantined to %s; %s will re-run: %v", noun, id, filepath.Base(path), qp, noun, err)
		return false
	}
	return true
}

// Create registers a new queued record for sp and makes its spec
// durable — fsync of the new directory's parent, then an atomic spec
// write — before returning, so an id the caller acknowledges survives
// any crash. On failure the record is rolled back, and ENOSPC latches
// the store degraded.
//
// The spec is where the record's trace is settled, in priority order:
// a traceparent the spec already carries (a coordinator or
// resubmitting client minted it upstream), else ctx's (the HTTP hop
// propagated it), else a freshly minted one — so every accepted record
// is traceable even when the client predates tracing, and the trace is
// as durable as the acceptance itself.
func (st *Store) Create(ctx context.Context, sp Spec) (*Record, error) {
	if _, ok := obs.ParseTraceparent(sp.Trace); !ok {
		tc, ok := obs.TraceContextFrom(ctx)
		if !ok {
			tc = obs.NewTrace()
		}
		sp.Trace = tc.Traceparent()
	}
	st.mu.Lock()
	st.seq++
	rec := &Record{
		ID: fmt.Sprintf("%s%06d", st.cfg.Noun[:1], st.seq), Spec: sp, CellsTotal: sp.CellsTotal(),
		State: StateQueued, Enqueued: time.Now(),
	}
	st.records[rec.ID] = rec
	st.order = append(st.order, rec.ID)
	st.mu.Unlock()

	specData, err := json.MarshalIndent(sp, "", "  ")
	if err == nil {
		if err = st.cfg.FS.MkdirAll(st.Dir(rec.ID), 0o755); err == nil {
			// Make the directory entry itself durable before the spec
			// rename that depends on it — the fsync a bare MkdirAll
			// forgets.
			st.cfg.FS.SyncDir(st.dir)
			err = durable.WriteFileAtomic(st.cfg.FS, filepath.Join(st.Dir(rec.ID), "spec.json"), append(specData, '\n'))
		}
	}
	if err != nil {
		st.mu.Lock()
		delete(st.records, rec.ID)
		st.order = slices.DeleteFunc(st.order, func(id string) bool { return id == rec.ID })
		st.mu.Unlock()
		if durable.IsNoSpace(err) {
			// Ack nothing we cannot persist: previously-acked state is
			// untouched, and the daemon sheds until a probe write clears
			// the pressure.
			st.setDegraded(true)
			return nil, runx.Newf(runx.KindUnavailable, st.cfg.Stage, "persist %s %s: %w", st.cfg.Noun, rec.ID, err)
		}
		return nil, runx.Newf(runx.KindCorrupt, st.cfg.Stage, "persist %s %s: %w", st.cfg.Noun, rec.ID, err)
	}
	st.logf("%s %s: accepted (%d cells)", st.cfg.Noun, rec.ID, rec.CellsTotal)
	return rec, nil
}

// QuarantineJournal moves a journal that cannot be resumed (corrupt
// record, torn header, recorded under different settings) aside. It
// carries no trustworthy progress, and the sweep is deterministic, so
// the caller restarts the run from scratch — but the evidence is
// kept, never deleted. It returns where the journal went.
func (st *Store) QuarantineJournal(id, path string, cause error) (string, error) {
	qp, err := durable.Quarantine(st.cfg.FS, path)
	if err != nil {
		return "", runx.Newf(runx.KindCorrupt, st.cfg.Stage, "%s %s: journal unusable (%v) and quarantine failed: %v", st.cfg.Noun, id, cause, err)
	}
	st.cfg.Counters.Quarantined.Inc()
	st.cfg.Counters.Healed.Inc()
	durable.NoteHealed()
	return qp, nil
}

// Begin marks a record running with no cells done and returns when it
// was enqueued, for the queue-wait span.
func (st *Store) Begin(rec *Record) (enqueued time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec.State = StateRunning
	rec.CellsDone = 0
	return rec.Enqueued
}

// CellDone counts one more finished (or replayed) cell.
func (st *Store) CellDone(rec *Record) {
	st.mu.Lock()
	rec.CellsDone++
	st.mu.Unlock()
}

func (st *Store) update(rec *Record, f func(*Record)) {
	st.mu.Lock()
	f(rec)
	st.mu.Unlock()
}

// Finish records a run's outcome. A canceled run (drain, shutdown) or
// one that hit ENOSPC keeps its journal and parks as interrupted, to
// resume on the next start; every other failure is permanent and
// recorded in failed.json so restarts do not retry deterministic
// errors.
func (st *Store) Finish(rec *Record, err error) {
	noun, c := st.cfg.Noun, st.cfg.Counters
	if err == nil {
		st.update(rec, func(r *Record) { r.State, r.CellsDone = StateDone, r.CellsTotal })
		c.Done.Inc()
		st.logf("%s %s: done (%d cells)", noun, rec.ID, rec.CellsTotal)
		return
	}
	errText, errKind := err.Error(), ""
	if e, ok := runx.As(err); ok {
		errKind = e.Kind.String()
	}
	if runx.IsKind(err, runx.KindCanceled) || durable.IsNoSpace(err) {
		st.update(rec, func(r *Record) { r.State, r.ErrText, r.ErrKind = StateInterrupted, errText, errKind })
		if c.Interrupted != nil {
			c.Interrupted.Inc()
		}
		if durable.IsNoSpace(err) {
			st.setDegraded(true)
		}
		st.logf("%s %s: interrupted, journaled for resume: %v", noun, rec.ID, err)
		return
	}
	// The marker must be durable before StateFailed is observable:
	// anyone who sees the state (or a recovery scan after a crash here)
	// must also see failed.json, or the record re-runs rather than
	// silently resurrecting as queued.
	st.update(rec, func(r *Record) { r.ErrText, r.ErrKind = errText, errKind })
	data, _ := json.Marshal(struct {
		Error string `json:"error"`
		Kind  string `json:"kind,omitempty"`
	}{errText, errKind})
	if werr := durable.WriteFileAtomic(st.cfg.FS, filepath.Join(st.Dir(rec.ID), "failed.json"), append(data, '\n')); werr != nil {
		if durable.IsNoSpace(werr) {
			st.setDegraded(true)
		}
		st.logf("%s %s: could not record failure: %v", noun, rec.ID, werr)
	}
	st.update(rec, func(r *Record) { r.State = StateFailed })
	c.Failed.Inc()
	st.logf("%s %s: failed permanently: %v", noun, rec.ID, err)
}

// Get returns the record with the given id.
func (st *Store) Get(id string) (*Record, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.records[id]
	return rec, ok
}

// Status returns a record's status snapshot.
func (st *Store) Status(id string) (*JobStatus, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.records[id]
	if !ok {
		return nil, false
	}
	return statusLocked(rec), true
}

// Snapshot renders one record's status.
func (st *Store) Snapshot(rec *Record) *JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return statusLocked(rec)
}

// List returns every record's status in submission order.
func (st *Store) List() []*JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*JobStatus, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, statusLocked(st.records[id]))
	}
	return out
}

func statusLocked(rec *Record) *JobStatus {
	js := &JobStatus{
		ID:         rec.ID,
		State:      rec.State,
		CellsDone:  rec.CellsDone,
		CellsTotal: rec.CellsTotal,
		Resumed:    rec.Resumed,
		Error:      rec.ErrText,
		Kind:       rec.ErrKind,
		Deadline:   rec.Spec.Deadline,
	}
	if rec.Spec.Priority != "" {
		js.Priority = rec.Spec.Class()
	}
	return js
}

// Dir returns the record's state directory.
func (st *Store) Dir(id string) string {
	return filepath.Join(st.dir, id)
}

// ResultPath returns the path of a done record's result file.
func (st *Store) ResultPath(id string) string {
	return filepath.Join(st.Dir(id), "result.json")
}

// Exists reports whether path exists on the store's filesystem.
func (st *Store) Exists(path string) bool {
	_, err := st.cfg.FS.Stat(path)
	return err == nil
}

// Degraded reports whether the store is in low-disk degraded mode.
// While degraded it probes with a tiny durable write; the first probe
// that succeeds clears the state, so recovery needs no operator action
// beyond freeing space.
func (st *Store) Degraded() bool {
	if !st.degraded.Load() {
		return false
	}
	if st.probeDisk() {
		st.setDegraded(false)
		return false
	}
	return true
}

// LowDiskErr is the shed error for a new submission while degraded,
// nil otherwise.
func (st *Store) LowDiskErr() error {
	if !st.Degraded() {
		return nil
	}
	return runx.Newf(runx.KindUnavailable, st.cfg.Stage,
		"low disk: shedding new %ss until durable writes succeed; retry after %s", st.cfg.Noun, st.cfg.RetryAfter)
}

func (st *Store) setDegraded(on bool) {
	if st.degraded.Swap(on) == on {
		return
	}
	durable.SetLowDisk(on)
	if on {
		st.cfg.Counters.LowDisk.Set(1)
		st.logf("durable write hit ENOSPC; entering degraded mode (%s)", st.cfg.DegradedNote)
	} else {
		st.cfg.Counters.LowDisk.Set(0)
		st.logf("disk probe succeeded; leaving degraded mode")
	}
	if st.cfg.OnDegraded != nil {
		st.cfg.OnDegraded(on)
	}
}

// probeDisk attempts a tiny durable write in the state root.
func (st *Store) probeDisk() bool {
	path := filepath.Join(st.cfg.Root, ".diskprobe")
	f, err := st.cfg.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("ok\n"))
	serr := f.Sync()
	cerr := f.Close()
	st.cfg.FS.Remove(path)
	return werr == nil && serr == nil && cerr == nil
}

// ---- HTTP envelope ----

// statusRecorder captures the response status for the access log and
// the request counters. A handler that never calls WriteHeader has
// implicitly answered 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// accessEntry rides the request context so handlers can attach fields
// the middleware cannot know — today just the job id a submission was
// assigned. The middleware owns the struct; handlers only fill it.
type accessEntry struct {
	jobID string
}

type accessKey struct{}

// setAccessJobID records the job id on the request's access-log entry.
func setAccessJobID(ctx context.Context, id string) {
	if e, ok := ctx.Value(accessKey{}).(*accessEntry); ok {
		e.jobID = id
	}
}

// Wrap is the per-request middleware: a deadline on the request
// context (the same cancellation surface runx-hardened code checks),
// the caller's trace context, panic isolation (one bad handler
// invocation is a 500, not a dead daemon), the daemon's per-endpoint
// request metrics, and exactly one structured access-log line per
// request — shed (429) and drain (503) responses included, since they
// matter most when operators are staring at the log.
func (st *Store) Wrap(endpoint string, timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		// Extract the caller's trace context, if any: handlers and every
		// log line under this request then carry the same trace_id the
		// client minted, and sampled requests record span fragments.
		if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.WithTraceContext(ctx, tc)
			if st.cfg.Frags != nil {
				ctx = obs.WithFragments(ctx, st.cfg.Frags)
			}
		}
		entry := &accessEntry{}
		if st.cfg.AccessJobID {
			entry.jobID = r.PathValue("id")
		}
		ctx = context.WithValue(ctx, accessKey{}, entry)
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				err := runx.FromPanic(p, st.cfg.Stage+"."+r.Method+" "+r.URL.Path)
				st.logf("%v", err)
				st.WriteError(rec, err)
			}
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			d := time.Since(start)
			st.cfg.ObserveHTTP(endpoint, rec.status, d)
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("duration", d),
			}
			if entry.jobID != "" {
				attrs = append(attrs, slog.String("job", entry.jobID))
			}
			st.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "http request", attrs...)
		}()
		h(rec, r)
	}
}

// errorBody is the structured error envelope every non-2xx response
// carries; Kind round-trips through runx.KindFromString on the client.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// WriteError renders err as the error envelope, with the status its
// runx kind maps to and a Retry-After hint on overload and
// unavailability.
func (st *Store) WriteError(w http.ResponseWriter, err error) {
	kind := runx.KindUnknown
	if e, ok := runx.As(err); ok {
		kind = e.Kind
	}
	if kind == runx.KindOverload || kind == runx.KindUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((st.cfg.RetryAfter).Seconds()+0.5)))
	}
	WriteJSON(w, kind.HTTPStatus(), errorBody{Error: err.Error(), Kind: kind.String()})
}

// WriteJSON writes v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already written; a failed write has no recourse
}

func (st *Store) unknown(id string) error {
	return runx.Newf(runx.KindInvalidInput, st.cfg.Stage, "unknown %s %q", st.cfg.Noun, id)
}

// HandleList serves GET /v1/jobs.
func (st *Store) HandleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, st.List())
}

// HandleStatus serves GET /v1/jobs/{id}.
func (st *Store) HandleStatus(w http.ResponseWriter, r *http.Request) {
	js, ok := st.Status(r.PathValue("id"))
	if !ok {
		st.WriteError(w, st.unknown(r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, js)
}

// HandleResult serves GET /v1/jobs/{id}/result: the verified result
// bytes of a done record, stamped with their digest.
func (st *Store) HandleResult(w http.ResponseWriter, r *http.Request) {
	id, noun, stage := r.PathValue("id"), st.cfg.Noun, st.cfg.Stage
	js, ok := st.Status(id)
	if !ok {
		st.WriteError(w, st.unknown(id))
		return
	}
	switch js.State {
	case StateDone:
	case StateFailed:
		st.WriteError(w, runx.Newf(runx.KindFromString(js.Kind), stage, "%s %s failed: %s", noun, id, js.Error))
		return
	default:
		// Not finished yet: an honest retry-later, with the same backoff
		// hint as load shedding.
		st.WriteError(w, runx.Newf(runx.KindUnavailable, stage, "%s %s is %s (%d/%d cells)", noun, id, js.State, js.CellsDone, js.CellsTotal))
		return
	}
	data, err := durable.ReadFileVerified(st.cfg.FS, st.ResultPath(id))
	if err != nil {
		if runx.IsKind(err, runx.KindCorrupt) {
			// The stored result no longer matches its recorded digest:
			// quarantine the damage and re-run. The sweep is
			// deterministic, so the re-run serves byte-identical results;
			// the client's Wait loop just sees a retry-later meanwhile.
			if qp, qerr := durable.Quarantine(st.cfg.FS, st.ResultPath(id)); qerr == nil {
				st.cfg.Counters.Quarantined.Inc()
				st.logf("%s %s: result failed integrity check, quarantined to %s: %v", noun, id, qp, err)
				if st.cfg.Heal != nil && st.cfg.Heal(id) {
					st.cfg.Counters.Healed.Inc()
					durable.NoteHealed()
				}
			}
			next := ", restart to re-run"
			if st.cfg.Heal != nil {
				next = " and re-queued for re-run"
			}
			st.WriteError(w, runx.Newf(runx.KindUnavailable, stage,
				"%s %s result failed integrity check; quarantined%s", noun, id, next))
			return
		}
		st.WriteError(w, runx.Newf(runx.KindCorrupt, stage, "%s %s result unreadable: %v", noun, id, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The body was verified against its stored digest above; stamping
	// that digest on the response lets the client extend the integrity
	// check across the wire.
	w.Header().Set(durable.DigestHeader, durable.Digest(data))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// HandleHealthz is liveness: 200 while the process serves.
func HandleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// HandleVersionz serves the build info.
func HandleVersionz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, obs.Version())
}
