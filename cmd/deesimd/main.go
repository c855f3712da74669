// Command deesimd is the fault-tolerant simulation service: an
// HTTP/JSON daemon that accepts sweep submissions (POST /v1/jobs),
// runs them as crash-safe journaled sweeps on a bounded worker pool,
// and sheds load with 429 + Retry-After when its admission queue is
// full.
//
// Usage:
//
//	deesimd [-addr 127.0.0.1:8425] [-addr-file path] [-state dir]
//	        [-queue N] [-batch-queue N] [-brownout-watermark N]
//	        [-workers N] [-cell-jobs N]
//	        [-cell-slots N] [-cell-timeout d]
//	        [-coord url] [-self-url url] [-heartbeat d]
//	        [-job-timeout d] [-request-timeout d] [-drain-grace d]
//	        [-retry-after d] [-retries N] [-backoff d]
//	        [-retry-budget N] [-retry-budget-refill F]
//	        [-memo-dir path] [-memo-mem bytes]
//	        [-log-level info] [-log-json] [-metrics-out path]
//	        [-flight-out path] [-pprof] [-version] [-fsck]
//
// Overload policy: submissions carry a priority class ("interactive",
// the default, or "batch") and admit against separate queues (-queue
// for interactive, -batch-queue for batch). As interactive occupancy
// climbs past -brownout-watermark the daemon browns out progressively
// — shed batch first, then defer all new work, and under low-disk
// degradation serve reads only — always with Retry-After on the shed.
// -retry-budget caps total cell-retry amplification across the daemon
// (token bucket refilled at -retry-budget-refill tokens/sec; 0 =
// unlimited, the historical behavior).
//
// Fleet mode: with -coord the daemon also serves leased distributed-
// sweep cells (POST /v1/cells, bounded by -cell-slots) and registers
// with the given deesim-coord coordinator, heartbeating its tri-state
// (ready/busy/draining) so the coordinator stops leasing to it the
// moment a drain begins. -self-url is the base URL the coordinator
// should dial back (defaults to http://<bound addr>).
//
// Telemetry: GET /metrics serves the whole process's series (simulator
// core, supervisor, server) in Prometheus text format, GET /versionz
// the build info, and -pprof opts into /debug/pprof/. Every request is
// access-logged as one structured line (-log-json for JSON logs).
// -metrics-out snapshots the registry to a file — written immediately
// when SIGINT/SIGTERM arrives, not only on clean exit, so a drain cut
// short still leaves telemetry behind.
//
// Tracing and the black box: every traced request's span fragments are
// appended to <state>/fragments.jsonl and served back over GET
// /v1/tracefrag, so a coordinator can merge the fleet's fragments into
// one timeline (deesimctl trace fetch). The always-on flight recorder
// is dumped to -flight-out (default <state>/flight.json) on panic,
// SIGQUIT, and nonzero exit, and a snapshot is persisted continuously
// — even a SIGKILL leaves a dump naming the cells that were in flight.
//
// SIGINT/SIGTERM drains gracefully: admission closes (submissions get
// 503, /readyz reports "draining"), running jobs get -drain-grace to
// finish, then their contexts are canceled — progress stays journaled.
// The process then exits 0; a second signal kills it immediately. On
// the next start the state directory is scanned and every incomplete
// job resumes from its journal, replaying finished cells.
//
// -addr-file, when set, receives the bound listen address (useful with
// -addr 127.0.0.1:0 in tests and scripts).
//
// With -fsck the daemon does not serve: it integrity-checks the -state
// directory (digest sidecars, journal replay, quarantine contents),
// prints per-artifact verdicts, and exits — corrupt-kind code if
// anything is corrupt or quarantined. Run it on a stopped daemon's
// state before restarting after suspected disk trouble.
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
	"deesim/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deesimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag     = fs.String("addr", "127.0.0.1:8425", "listen address (host:port; port 0 picks a free one)")
		addrFileFlag = fs.String("addr-file", "", "write the bound listen address to this file once serving")
		stateFlag    = fs.String("state", "deesimd.state", "durable state directory (job specs, journals, results)")
		queueFlag    = fs.Int("queue", 8, "interactive admission-queue depth; submissions beyond it are shed with 429")
		batchQueue   = fs.Int("batch-queue", 0, "batch admission-queue depth (0 = half of -queue)")
		brownoutWM   = fs.Int("brownout-watermark", 0, "interactive occupancy at which batch submissions shed (0 = half of -queue)")
		workersFlag  = fs.Int("workers", 1, "jobs run concurrently")
		cellJobsFlag = fs.Int("cell-jobs", 4, "worker-pool size inside each job's matrix sweep")
		cellSlots    = fs.Int("cell-slots", 0, "concurrently-leased distributed-sweep cells served (0 = cell-jobs)")
		cellTimeout  = fs.Duration("cell-timeout", 5*time.Minute, "execution cap per leased cell")
		coordFlag    = fs.String("coord", "", "deesim-coord base URL to register with (enables fleet mode)")
		selfURLFlag  = fs.String("self-url", "", "base URL the coordinator dials back (default http://<bound addr>)")
		hbEvery      = fs.Duration("heartbeat", 0, "heartbeat cadence to the coordinator (0 = coordinator-assigned)")
		jobTimeout   = fs.Duration("job-timeout", 0, "default wall-clock cap per job (0 = none; specs may set tighter)")
		reqTimeout   = fs.Duration("request-timeout", 10*time.Second, "per-HTTP-request deadline")
		drainGrace   = fs.Duration("drain-grace", 15*time.Second, "how long a drain lets running jobs finish before canceling")
		retryAfter   = fs.Duration("retry-after", 2*time.Second, "Retry-After hint sent with 429/503")
		retriesFlag  = fs.Int("retries", 2, "default per-cell retries for retryable failures")
		backoffFlag  = fs.Duration("backoff", 250*time.Millisecond, "default base retry backoff per cell")
		retryBudget  = fs.Int("retry-budget", 0, "total retry tokens shared across all sweeps (0 = unlimited)")
		budgetRefill = fs.Float64("retry-budget-refill", 0, "retry-budget refill rate in tokens/sec")
		memoDir      = fs.String("memo-dir", "", "content-addressed result-cache directory (empty = caching off)")
		memoMem      = fs.Int64("memo-mem", 0, "in-memory result-cache budget in bytes (0 = 64 MiB; effective with -memo-dir)")
		pprofFlag    = fs.Bool("pprof", false, "expose /debug/pprof/ profiling endpoints (debug surface; off by default)")
		fsckFlag     = fs.Bool("fsck", false, "integrity-check the -state directory and exit (do not serve)")
	)
	obsFlags := obs.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return runx.ExitUsage
	}
	if done, err := obsFlags.Handle("deesimd", stdout, stderr); done {
		return runx.ExitOK
	} else if err != nil {
		fmt.Fprintln(stderr, "deesimd:", err)
		return runx.ExitCode(err)
	}
	logger := log.New(stderr, "", log.LstdFlags|log.Lmicroseconds)
	fail := func(err error) int {
		logger.Printf("deesimd: %v", err)
		code := runx.ExitCode(err)
		// Every typed failure leaves the black box behind (no-op
		// without -flight-out, which serving mode defaults into -state).
		obsFlags.DumpFlightOnExit("deesimd", code)
		return code
	}
	defer func() {
		if err := obsFlags.WriteMetrics(); err != nil {
			logger.Printf("deesimd: %v", err)
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

	// Flight recorder: default the black box into the state directory,
	// dump it on panic and SIGQUIT, and persist a periodic snapshot so
	// even SIGKILL leaves a dump naming the in-flight cells.
	obsFlags.DefaultFlightOut(filepath.Join(*stateFlag, "flight.json"))
	defer obsFlags.DumpFlightOnPanic("deesimd")
	stopQuit := obsFlags.WatchQuit("deesimd", logger.Printf)
	defer stopQuit()
	frCtx, frStop := context.WithCancel(context.Background())
	defer frStop()
	go obs.Flight.Persist(frCtx, obsFlags.FlightOut, "deesimd", 0)

	// Span fragments: this process's half of every distributed trace,
	// served back to the coordinator over GET /v1/tracefrag.
	frags, err := obs.OpenFragmentLog(filepath.Join(*stateFlag, "fragments.jsonl"), "deesimd")
	if err != nil {
		return fail(runx.Newf(runx.KindUnknown, "deesimd", "open fragment log: %v", err))
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
	s, err := server.New(server.Config{
		StateDir:          *stateFlag,
		QueueDepth:        *queueFlag,
		BatchQueueDepth:   *batchQueue,
		BrownoutWatermark: *brownoutWM,
		Budget:            bud,
		Workers:           *workersFlag,
		CellJobs:          *cellJobsFlag,
		CellSlots:         *cellSlots,
		CellTimeout:       *cellTimeout,
		JobTimeout:        *jobTimeout,
		RequestTimeout:    *reqTimeout,
		DrainGrace:        *drainGrace,
		RetryAfter:        *retryAfter,
		Retries:           *retriesFlag,
		Backoff:           *backoffFlag,
		Logf:              logger.Printf,
		Logger:            slogger,
		Pprof:             *pprofFlag,
		Memo:              mm,
		Frags:             frags,
	})
	if err != nil {
		return fail(err)
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		return fail(runx.Newf(runx.KindUnavailable, "deesimd", "listen %s: %v", *addrFlag, err))
	}
	if *addrFileFlag != "" {
		if err := durable.WriteFileAtomic(nil, *addrFileFlag, []byte(ln.Addr().String()+"\n")); err != nil {
			ln.Close()
			return fail(err)
		}
	}

	s.Start()
	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("deesimd: serving on http://%s (state %s, queue %d, workers %d)",
		ln.Addr(), *stateFlag, *queueFlag, *workersFlag)
	fmt.Fprintln(stdout, ln.Addr().String())

	// Fleet mode: join the coordinator and keep beating until shutdown.
	hbCtx, hbStop := context.WithCancel(context.Background())
	defer hbStop()
	if *coordFlag != "" {
		selfURL := *selfURLFlag
		if selfURL == "" {
			selfURL = "http://" + ln.Addr().String()
		}
		hb := &coord.Heartbeater{
			CoordURL: *coordFlag,
			SelfURL:  selfURL,
			Slots:    s.CellSlots(),
			Every:    *hbEvery,
			State: func() (string, int) {
				return s.WorkerState(), s.CellsActive()
			},
			Logf: logger.Printf,
		}
		go hb.Run(hbCtx)
	}

	ctx, stop := runx.MainContext(0)
	select {
	case <-ctx.Done():
		// First signal: drain. stop() restores the default handler so a
		// second signal kills the process outright. The heartbeater keeps
		// beating through the drain so the coordinator sees "draining"
		// and stops leasing here before the listener closes.
		stop()
		logger.Printf("deesimd: signal received, draining")
		if err := s.Drain(context.Background()); err != nil {
			return fail(err)
		}
		hbStop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Printf("deesimd: http shutdown: %v", err)
		}
		logger.Printf("deesimd: drained, exiting")
		return runx.ExitOK
	case err := <-serveErr:
		stop()
		s.Close()
		return fail(runx.Newf(runx.KindUnavailable, "deesimd", "serve: %v", err))
	}
}
