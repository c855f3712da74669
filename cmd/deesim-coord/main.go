// Command deesim-coord is the distributed-sweep coordinator: it
// accepts sweep submissions on the same /v1/jobs API deesimd speaks,
// decomposes each sweep into matrix cells, leases the cells across a
// fleet of registered deesimd workers (POST /v1/workers to join), and
// merges the returned results through the exact single-node
// aggregation path — so the merged result file is byte-identical to
// what one deesimd would have produced.
//
// Usage:
//
//	deesim-coord [-addr 127.0.0.1:8525] [-addr-file path] [-state dir]
//	             [-queue N] [-lease-ttl d] [-heartbeat-timeout d]
//	             [-cell-retries N] [-backoff d] [-straggler-factor F]
//	             [-retry-budget N] [-retry-budget-refill F]
//	             [-cell-timeout d] [-request-timeout d] [-drain-grace d]
//	             [-retry-after d] [-log-level info] [-log-json]
//	             [-metrics-out path] [-flight-out path] [-version] [-fsck]
//
// Overload policy: sweeps carry the same priority/deadline spec fields
// deesimd understands; a sweep past its absolute deadline is refused at
// submission, cancelled mid-run, and never re-dispatched (typed
// "deadline"). -retry-budget caps total cell re-dispatch amplification
// across all sweeps (token bucket refilled at -retry-budget-refill
// tokens/sec; 0 = unlimited, the historical behavior).
//
// Fault tolerance: every lease grant and cell completion is fsync'd to
// a per-sweep journal before it takes effect, so a SIGKILL'd
// coordinator resumes its sweep without re-running finished cells.
// Workers that crash, stall, or partition lose their leases (TTL or
// heartbeat staleness) and their cells re-dispatch elsewhere; straggler
// cells are speculatively duplicated near the end of a sweep, first
// durable completion wins. SIGINT/SIGTERM drains gracefully and
// flushes -metrics-out immediately.
//
// Tracing: GET /v1/trace/<sweep> gathers the sweep's span fragments
// from the coordinator's own log and every registered worker, corrects
// per-worker clock skew against the lease-dispatch timestamps, and
// returns one Perfetto-loadable timeline (deesimctl trace fetch, with
// -server pointed here). The flight recorder defaults into -state and
// is dumped on panic, SIGQUIT, nonzero exit, and continuously, as on
// deesimd.
//
// With -fsck the coordinator does not serve: it integrity-checks the
// -state directory and exits, corrupt-kind code if anything is corrupt
// or quarantined.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"deesim/internal/budget"
	"deesim/internal/coord"
	"deesim/internal/durable"
	"deesim/internal/fsck"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deesim-coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag     = fs.String("addr", "127.0.0.1:8525", "listen address (host:port; port 0 picks a free one)")
		addrFileFlag = fs.String("addr-file", "", "write the bound listen address to this file once serving")
		stateFlag    = fs.String("state", "deesim-coord.state", "durable state directory (sweep specs, journals, results)")
		queueFlag    = fs.Int("queue", 8, "admission-queue depth; submissions beyond it are shed with 429")
		leaseTTL     = fs.Duration("lease-ttl", 2*time.Minute, "wall-clock bound per cell lease; expired leases re-dispatch")
		hbTimeout    = fs.Duration("heartbeat-timeout", 15*time.Second, "heartbeat staleness that declares a worker lost")
		cellRetries  = fs.Int("cell-retries", 2, "re-dispatches per cell beyond the first attempt")
		backoffFlag  = fs.Duration("backoff", 250*time.Millisecond, "base re-dispatch backoff per cell")
		stragglerF   = fs.Float64("straggler-factor", 3, "speculate a lease running longer than this multiple of the median cell time (0 disables)")
		retryBudget  = fs.Int("retry-budget", 0, "total cell re-dispatch tokens shared across all sweeps (0 = unlimited)")
		budgetRefill = fs.Float64("retry-budget-refill", 0, "retry-budget refill rate in tokens/sec")
		cellTimeout  = fs.Duration("cell-timeout", 0, "HTTP budget per cell dispatch (0 = lease-ttl + 10s)")
		reqTimeout   = fs.Duration("request-timeout", 10*time.Second, "per-HTTP-request deadline")
		drainGrace   = fs.Duration("drain-grace", 15*time.Second, "how long a drain lets the running sweep finish before canceling")
		retryAfter   = fs.Duration("retry-after", 2*time.Second, "Retry-After hint sent with 429/503")
		memoDir      = fs.String("memo-dir", "", "content-addressed result-cache directory (empty = caching off)")
		memoMem      = fs.Int64("memo-mem", 0, "in-memory result-cache budget in bytes (0 = 64 MiB; effective with -memo-dir)")
		fsckFlag     = fs.Bool("fsck", false, "integrity-check the -state directory and exit (do not serve)")
	)
	obsFlags := obs.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return runx.ExitUsage
	}
	if done, err := obsFlags.Handle("deesim-coord", stdout, stderr); done {
		return runx.ExitOK
	} else if err != nil {
		fmt.Fprintln(stderr, "deesim-coord:", err)
		return runx.ExitCode(err)
	}
	logger := log.New(stderr, "", log.LstdFlags|log.Lmicroseconds)
	fail := func(err error) int {
		logger.Printf("deesim-coord: %v", err)
		code := runx.ExitCode(err)
		obsFlags.DumpFlightOnExit("deesim-coord", code)
		return code
	}
	defer func() {
		if err := obsFlags.WriteMetrics(); err != nil {
			logger.Printf("deesim-coord: %v", err)
		}
	}()
	stopFlush := obsFlags.FlushOnSignal(logger.Printf)
	defer stopFlush()

	slogger, err := obs.SetupLogger(stderr, obsFlags.LogLevel, obsFlags.LogJSON)
	if err != nil {
		return fail(err)
	}

	if *fsckFlag {
		r, err := fsck.Dir(nil, *stateFlag)
		if err != nil {
			return fail(err)
		}
		r.Render(stdout)
		if err := r.Err(); err != nil {
			return fail(err)
		}
		return runx.ExitOK
	}

	// Flight recorder and span fragments, exactly as on deesimd: the
	// black box defaults into -state and survives SIGKILL via the
	// periodic snapshot; the fragment log holds the coordinator's half
	// of every sweep trace (root, lease-dispatch, and merge spans).
	obsFlags.DefaultFlightOut(filepath.Join(*stateFlag, "flight.json"))
	defer obsFlags.DumpFlightOnPanic("deesim-coord")
	stopQuit := obsFlags.WatchQuit("deesim-coord", logger.Printf)
	defer stopQuit()
	frCtx, frStop := context.WithCancel(context.Background())
	defer frStop()
	go obs.Flight.Persist(frCtx, obsFlags.FlightOut, "deesim-coord", 0)

	frags, err := obs.OpenFragmentLog(filepath.Join(*stateFlag, "fragments.jsonl"), "deesim-coord")
	if err != nil {
		return fail(runx.Newf(runx.KindUnknown, "deesim-coord", "open fragment log: %v", err))
	}
	defer frags.Close()

	var bud *budget.Budget
	if *retryBudget > 0 {
		bud = budget.New(*retryBudget, *budgetRefill)
	}
	var mm *memo.Memo
	if *memoDir != "" {
		if mm, err = memo.New(memo.Config{Dir: *memoDir, MemBytes: *memoMem}); err != nil {
			return fail(err)
		}
	}
	c, err := coord.New(coord.Config{
		StateDir:         *stateFlag,
		Budget:           bud,
		Memo:             mm,
		QueueDepth:       *queueFlag,
		LeaseTTL:         *leaseTTL,
		HeartbeatTimeout: *hbTimeout,
		CellRetries:      *cellRetries,
		Backoff:          *backoffFlag,
		StragglerFactor:  *stragglerF,
		CellTimeout:      *cellTimeout,
		RequestTimeout:   *reqTimeout,
		DrainGrace:       *drainGrace,
		RetryAfter:       *retryAfter,
		Logf:             logger.Printf,
		Logger:           slogger,
		Frags:            frags,
	})
	if err != nil {
		return fail(err)
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		return fail(runx.Newf(runx.KindUnavailable, "deesim-coord", "listen %s: %v", *addrFlag, err))
	}
	if *addrFileFlag != "" {
		if err := durable.WriteFileAtomic(nil, *addrFileFlag, []byte(ln.Addr().String()+"\n")); err != nil {
			ln.Close()
			return fail(err)
		}
	}

	c.Start()
	httpSrv := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("deesim-coord: serving on http://%s (state %s, lease-ttl %s, heartbeat-timeout %s)",
		ln.Addr(), *stateFlag, *leaseTTL, *hbTimeout)
	fmt.Fprintln(stdout, ln.Addr().String())

	ctx, stop := runx.MainContext(0)
	select {
	case <-ctx.Done():
		stop()
		logger.Printf("deesim-coord: signal received, draining")
		if err := c.Drain(context.Background()); err != nil {
			return fail(err)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Printf("deesim-coord: http shutdown: %v", err)
		}
		logger.Printf("deesim-coord: drained, exiting")
		return runx.ExitOK
	case err := <-serveErr:
		stop()
		c.Close()
		return fail(runx.Newf(runx.KindUnavailable, "deesim-coord", "serve: %v", err))
	}
}
