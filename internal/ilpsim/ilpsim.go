// Package ilpsim implements the constrained-resource ILP limit simulator
// of the paper's evaluation (§5): a re-implementation of the modified
// Lam & Wilson trace-driven simulator. A static speculation tree
// (internal/dee) is superimposed on the dynamic execution trace; code may
// execute only where the tree is; the tree moves down one or more branch
// paths when its earliest (root) branch has resolved and the
// instructions along its branch path have fully executed.
//
// # Timing model
//
// Unit instruction latency, minimal data dependencies (flow register
// dependencies after renaming; loads depend on the latest prior store to
// an overlapping address; unlimited PEs inside covered paths — the paper
// constrains branch-path resources, not PEs). An instruction executes in
// the first cycle in which
//
//  1. its branch path is covered by the speculation tree,
//  2. every producer it flow-depends on finished in an earlier cycle, and
//  3. its model-specific control constraints hold (branch serialization
//     for the non-MF models; mispredict squash scope per the CD model).
//
// Coverage works on the window-relative "known direction" vector: a
// pending branch's direction is known if the predictor got it right
// (speculation proceeds down the predicted arc), or once the branch has
// resolved and the misprediction penalty has elapsed (the tree re-forms
// along the actual path, as Levo's DEE-path-to-mainline copy does).
// DEE's static tree additionally covers, per its triangular region, the
// paths reached through a single not-yet-resolved misprediction — that
// is exactly the disjoint eager advantage.
//
// The reduced-control-dependency models (CD) let an instruction ignore a
// mispredicted unresolved branch it is not control dependent on
// (operationally: the trace has already passed the branch's immediate
// postdominator), modelling the static instruction window that does not
// squash control-independent work. The minimal models (CD-MF) further
// remove branch serialization, letting branches resolve out of order.
package ilpsim

import (
	"context"
	"fmt"
	"sync"

	"deesim/internal/cache"
	"deesim/internal/cfg"
	"deesim/internal/dee"
	"deesim/internal/isa"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// debugEvery, when positive, prints window diagnostics every N cycles.
var debugEvery = 0

// CDMode selects the control-dependency model.
type CDMode int

const (
	// Restrictive: every instruction after a branch is treated as
	// control dependent on it; branches execute serially.
	Restrictive CDMode = iota
	// CD: reduced control dependencies — squash scope bounded by the
	// branch's immediate postdominator; branches still serialized.
	CD
	// CDMF: minimal control dependencies with multiple flow — CD squash
	// scope and parallel out-of-order branch resolution.
	CDMF
)

func (m CDMode) String() string {
	switch m {
	case Restrictive:
		return ""
	case CD:
		return "-CD"
	case CDMF:
		return "-CD-MF"
	}
	return "-cd?"
}

// Model pairs a speculation strategy with a control-dependency model —
// one of the paper's eight simulated models (Oracle is separate).
type Model struct {
	Strategy dee.Strategy
	CDMode   CDMode
}

func (m Model) String() string { return m.Strategy.String() + m.CDMode.String() }

// Standard paper models (§5.2).
var (
	ModelEE      = Model{dee.EE, Restrictive}
	ModelSP      = Model{dee.SP, Restrictive}
	ModelDEE     = Model{dee.DEE, Restrictive}
	ModelSPCD    = Model{dee.SP, CD}
	ModelDEECD   = Model{dee.DEE, CD}
	ModelSPCDMF  = Model{dee.SP, CDMF}
	ModelDEECDMF = Model{dee.DEE, CDMF}
)

// PaperModels lists the seven constrained models in the paper's legend
// order for Figure 5.
var PaperModels = []Model{
	ModelDEECDMF, ModelSPCDMF, ModelDEECD, ModelSPCD, ModelDEE, ModelSP, ModelEE,
}

// Latencies assigns per-class instruction latencies in cycles. The zero
// value means unit latency throughout — the paper's evaluation
// assumption. The paper defers non-unit latencies to future work (§1);
// Realistic() provides a period-plausible point for that study.
type Latencies struct {
	ALU    int
	Mul    int
	Div    int
	Load   int // overridden per access when a cache is configured
	Store  int
	Branch int
	Jump   int
}

// UnitLatencies is the paper's single-cycle assumption.
func UnitLatencies() Latencies {
	return Latencies{ALU: 1, Mul: 1, Div: 1, Load: 1, Store: 1, Branch: 1, Jump: 1}
}

// RealisticLatencies is a plausible early-90s pipeline: 3-cycle multiply,
// 12-cycle divide, 2-cycle load-use.
func RealisticLatencies() Latencies {
	return Latencies{ALU: 1, Mul: 3, Div: 12, Load: 2, Store: 1, Branch: 1, Jump: 1}
}

func (l Latencies) normalized() Latencies {
	u := UnitLatencies()
	pick := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	return Latencies{
		ALU: pick(l.ALU, u.ALU), Mul: pick(l.Mul, u.Mul), Div: pick(l.Div, u.Div),
		Load: pick(l.Load, u.Load), Store: pick(l.Store, u.Store),
		Branch: pick(l.Branch, u.Branch), Jump: pick(l.Jump, u.Jump),
	}
}

// of returns the latency for an operation.
func (l Latencies) of(op isa.Op) int {
	switch op {
	case isa.MUL:
		return l.Mul
	case isa.DIV, isa.REM:
		return l.Div
	case isa.LW, isa.LB, isa.LBU:
		return l.Load
	case isa.SW, isa.SB:
		return l.Store
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLEZ, isa.BGTZ:
		return l.Branch
	case isa.J, isa.JAL, isa.JR:
		return l.Jump
	default:
		return l.ALU
	}
}

// DefaultDeadlockLimit is the number of consecutive cycles without
// forward progress (and the margin over the instruction count) after
// which a run is declared deadlocked when Options.DeadlockLimit is zero.
const DefaultDeadlockLimit = 1 << 22

// MemSystem is the memory-system surface the simulator consumes when
// replaying loads and stores: per-access latency, allocation, and
// aggregate statistics. *cache.Cache satisfies it; fault-injection
// wrappers (internal/faultinject) satisfy it structurally without the
// simulator knowing.
type MemSystem interface {
	Access(addr uint32) bool
	Latency(addr uint32) int
	Stats() (accesses, misses uint64, missRate float64)
}

// Options tunes the simulation.
type Options struct {
	// DesignP is the characteristic prediction accuracy used to size the
	// static DEE tree (§3.1 step 1). If zero, the measured accuracy of
	// the run's own predictor on the trace is used — the best-informed
	// design point.
	DesignP float64
	// Penalty is the extra cycles, beyond the resolving cycle, before
	// squashed work restarts after a misprediction (the paper's Levo
	// penalty is one cycle).
	Penalty int
	// StrictMemory serializes every load behind the latest prior store
	// regardless of address (ablation of perfect disambiguation).
	StrictMemory bool
	// DeadlockLimit aborts after this many cycles with no progress
	// (safety net; 0 = DefaultDeadlockLimit, 2^22 cycles).
	DeadlockLimit int

	// Lat sets per-class instruction latencies (zero value = the paper's
	// unit latency).
	Lat Latencies
	// PEs caps the instructions issued per cycle (0 = unlimited, the
	// paper's implicit-PE assumption; it notes the implied maximum was
	// under 200). Issue priority follows window order: the mainline's
	// oldest paths first, as in Levo.
	PEs int
	// Cache, when non-nil, replays loads and stores through a data cache
	// in dynamic order and uses per-access hit/miss latencies for loads
	// (the "suitable memory system" of the paper's future work).
	Cache *cache.Config
	// Mem, when non-nil, takes precedence over Cache and supplies the
	// memory system directly — the hook fault injectors and alternative
	// hierarchies plug into.
	Mem MemSystem
}

// DefaultOptions matches the paper's evaluation assumptions.
func DefaultOptions() Options { return Options{Penalty: 1} }

// Result reports one simulation.
type Result struct {
	Model       Model
	ET          int
	Insts       int
	Cycles      int64
	Speedup     float64 // Insts / Cycles: factor over the 1-IPC sequential machine
	Branches    int     // dynamic conditional branches
	Mispredicts int
	Accuracy    float64 // predictor accuracy over the trace

	// RootResolvedMispredicts counts mispredicted branches that resolved
	// while at the root of the tree (window depth 0); the paper reports
	// 70–80% of mispredict resolutions happening there for DEE-CD-MF.
	RootResolvedMispredicts int

	// TreeML and TreeH record the static tree shape used (DEE models).
	TreeML, TreeH int

	// MaxPEs and AvgPEs record the peak and mean number of instructions
	// issued per cycle — the implicit processing-element demand. §5.1:
	// "The maximum number of PE's used at any time during the
	// simulations is likely to be less than 200 (for 100 branch paths),
	// with the average being much lower."
	MaxPEs int
	AvgPEs float64
}

// RootResolutionRate is RootResolvedMispredicts / Mispredicts.
func (r Result) RootResolutionRate() float64 {
	if r.Mispredicts == 0 {
		return 0
	}
	return float64(r.RootResolvedMispredicts) / float64(r.Mispredicts)
}

// deps pairs the trace's minimal data dependencies with the branch-path
// index of every instruction.
type deps struct {
	dd   *trace.DataDeps
	path []int32 // branch path index per inst
}

const noDep = trace.NoDep

// computeDeps delegates flow-dependency extraction to the trace package
// and adds the path segmentation the window model needs.
func computeDeps(tr *trace.Trace, strictMem bool) *deps {
	n := len(tr.Ins)
	d := &deps{dd: tr.DataDeps(strictMem), path: make([]int32, n)}
	ends := tr.Paths()
	pi := int32(0)
	for i := range tr.Ins {
		for int32(i) >= ends[pi] {
			pi++
		}
		d.path[i] = pi
	}
	return d
}

// computeJoins returns, per dynamic conditional branch (indexed by
// branch ordinal — the i-th entry is the i-th conditional branch in
// trace order), the first trace position past the branch at which
// control reaches the branch's immediate postdominator, or -1 when
// unknown (JR-crossed or off-trace). Instructions at or after the join
// are control independent of that branch.
func computeJoins(tr *trace.Trace, g *cfg.Graph) []int32 {
	// Occurrence lists per static instruction that is some branch's ipdom.
	wanted := make(map[int32][]int32)
	for _, din := range tr.Ins {
		if !din.IsBranch() {
			continue
		}
		if ip := g.IPdom(din.Static); ip >= 0 {
			if _, ok := wanted[ip]; !ok {
				wanted[ip] = nil
			}
		}
	}
	for i, din := range tr.Ins {
		if occ, ok := wanted[din.Static]; ok {
			wanted[din.Static] = append(occ, int32(i))
			_ = occ
		}
	}
	var joins []int32
	cursor := make(map[int32]int) // per-ipdom rolling cursor into occ list
	for i, din := range tr.Ins {
		if !din.IsBranch() {
			continue
		}
		ip := g.IPdom(din.Static)
		if ip < 0 {
			joins = append(joins, -1)
			continue
		}
		occ := wanted[ip]
		c := cursor[ip]
		for c < len(occ) && occ[c] <= int32(i) {
			c++
		}
		cursor[ip] = c
		if c < len(occ) {
			joins = append(joins, occ[c])
		} else {
			joins = append(joins, -1)
		}
	}
	return joins
}

// Sim is a prepared simulation over one trace. Prepare once, run many
// models against the same precomputed dependencies and predictions.
//
// A Sim is safe for concurrent use: after NewContext returns, every
// field is read-only, so any number of goroutines may call Run /
// RunContext / RunUnlimitedContext / Oracle on the same Sim
// simultaneously (e.g. fanning the eight paper models over one prepared
// trace). Per-run mutable state lives in pool-managed arenas private to
// each call. The concurrent-models race test in sched_test.go asserts
// this contract under the race detector.
type Sim struct {
	tr       *trace.Trace
	g        *cfg.Graph
	d        *deps
	joins    []int32 // per branch ordinal: join position or -1 (see computeJoins)
	correct  []bool  // per dynamic branch, in branch order
	accuracy float64

	// srcMask[k] is the bitmask of architectural registers dynamic
	// instruction k reads; isLoad[k] marks loads. Used with the static
	// side write sets to decide whether an instruction's operands are
	// unambiguous across an unresolved misprediction (the paper's total
	// control dependence).
	srcMask []uint32
	isLoad  []bool
	// sideWrites caches cfg.SideWrites per static instruction id (only
	// branch entries are populated).
	sideWrites [][2]cfg.WriteSet
	// profAcc is the measured per-static-branch prediction accuracy
	// (hits/total over the whole trace), indexed by static id — the
	// profile the DEE-profile model's dynamic trees are built from.
	profAcc []float64

	branchPos  []int32 // dynamic position of each conditional branch
	branchOrd  []int32 // per trace position: ordinal of this branch (-1 if not)
	pathBranch []int32 // per path: dynamic position of terminating branch (-1 tail)
	pathSize   []int32 // per path: number of instructions on it
	opts       Options

	lat           []int32 // per dynamic instruction latency in cycles
	cacheMissRate float64

	// Event-scheduler precomputation (built once in NewContext, read-only
	// afterwards): wakeOff/wakeList form a CSR producer→consumer
	// adjacency over the minimal data dependencies (a consumer appears
	// once per dependency slot, matching the per-slot counts in
	// depCount), depCount is the per-instruction dependency in-degree,
	// and maxLat the largest per-instruction latency (it sizes the
	// calendar ring).
	wakeOff  []int32
	wakeList []int32
	depCount []uint8
	maxLat   int32

	// Hot-loop companions to the tables above, also read-only after
	// NewContext: pathCorrect[i] reports whether window slot i's guarding
	// branch is absent or correctly predicted; pathJoin[i] caches
	// joinOf(pathBranch[i]) (-1 without a branch); nextBranch[k] is the
	// trace position of the conditional branch after branch k (-1
	// otherwise); misp[k] marks mispredicted branches. initPending and
	// initReady seed a run's dependency counters and ready lists, indexed
	// [0] for the serialization-free (MF) models and [1] for the
	// serialized ones.
	pathCorrect []bool
	pathJoin    []int32
	nextBranch  []int32
	misp        []bool
	initPending [2][]uint8
	initReady   [2][]int32

	// pool recycles runState arenas (finish/pathDone/ready lists/calendar
	// buckets) across RunContext calls on this Sim.
	pool sync.Pool
}

// New prepares the simulator: records dependencies, runs the predictor
// over the trace (predict-then-update in trace order, as the paper's
// 2-bit counters are trained), and computes control-dependence joins.
// The trace and options are validated; a bad input comes back as a
// *runx.Error of kind KindInvalidInput instead of a downstream panic.
func New(tr *trace.Trace, pred predictor.Predictor, opts Options) (*Sim, error) {
	return NewContext(context.Background(), tr, pred, opts)
}

// MustNew is New for tests and examples with known-good inputs; it
// panics on error.
func MustNew(tr *trace.Trace, pred predictor.Predictor, opts Options) *Sim {
	s, err := New(tr, pred, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// NewContext is New with cooperative cancellation: the precompute phases
// (dependency extraction, predictor replay, join computation, cache
// warmup) check ctx between passes, so a deadline set before a heavy
// sweep also bounds simulator construction.
func NewContext(ctx context.Context, tr *trace.Trace, pred predictor.Predictor, opts Options) (s *Sim, err error) {
	const stage = "ilpsim.New"
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, runx.FromPanic(r, stage)
		}
	}()
	if tr == nil {
		return nil, runx.Newf(runx.KindInvalidInput, stage, "nil trace")
	}
	if verr := tr.Validate(); verr != nil {
		return nil, &runx.Error{Kind: runx.KindInvalidInput, Stage: stage, Err: verr}
	}
	if pred == nil {
		return nil, runx.Newf(runx.KindInvalidInput, stage, "nil predictor")
	}
	if opts.DeadlockLimit < 0 {
		return nil, runx.Newf(runx.KindInvalidInput, stage, "negative DeadlockLimit %d", opts.DeadlockLimit)
	}
	if opts.DeadlockLimit == 0 {
		opts.DeadlockLimit = DefaultDeadlockLimit
	}
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	g := cfg.Build(tr.Prog)
	s = &Sim{
		tr:    tr,
		g:     g,
		d:     computeDeps(tr, opts.StrictMemory),
		joins: computeJoins(tr, g),
		opts:  opts,
	}
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	s.accuracy, s.correct = predictor.Accuracy(tr, pred)
	s.branchOrd = make([]int32, len(tr.Ins))
	for i := range s.branchOrd {
		s.branchOrd[i] = -1
	}
	for i, din := range tr.Ins {
		if din.IsBranch() {
			s.branchOrd[i] = int32(len(s.branchPos))
			s.branchPos = append(s.branchPos, int32(i))
		}
	}
	np := tr.NumPaths()
	s.pathBranch = make([]int32, np)
	for i := 0; i < np; i++ {
		s.pathBranch[i] = tr.PathBranch(i)
	}
	s.pathSize = make([]int32, np)
	for i := range tr.Ins {
		s.pathSize[s.d.path[i]]++
	}
	s.srcMask = make([]uint32, len(tr.Ins))
	s.isLoad = make([]bool, len(tr.Ins))
	for i, din := range tr.Ins {
		in := tr.Prog.Code[din.Static]
		var m uint32
		for _, r := range in.Src() {
			if r != isa.Zero {
				m |= 1 << uint(r)
			}
		}
		s.srcMask[i] = m
		s.isLoad[i] = isa.ClassOf(din.Op) == isa.ClassLoad
	}
	nStatic := len(tr.Prog.Code)
	s.sideWrites = make([][2]cfg.WriteSet, nStatic)
	seenSide := make([]bool, nStatic)
	for _, din := range tr.Ins {
		if !din.IsBranch() || seenSide[din.Static] {
			continue
		}
		taken, fall := g.SideWrites(din.Static)
		s.sideWrites[din.Static] = [2]cfg.WriteSet{taken, fall}
		seenSide[din.Static] = true
	}
	s.profAcc = computeProfile(tr, s.branchPos, s.correct, nStatic)
	s.buildWakeLists()
	s.buildSchedTables()
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	if lerr := s.computeLatencies(); lerr != nil {
		return nil, lerr
	}
	return s, nil
}

// buildWakeLists precomputes the producer→consumer wakeup adjacency in
// CSR form: wakeList[wakeOff[p]:wakeOff[p+1]] lists (in ascending trace
// order) every instruction with a data-dependency slot on producer p. A
// consumer with two slots on the same producer appears twice, matching
// depCount's per-slot in-degree, so the event scheduler's pending
// counters decrement consistently.
func (s *Sim) buildWakeLists() {
	n := len(s.tr.Ins)
	dd := s.d.dd
	s.wakeOff = make([]int32, n+1)
	s.depCount = make([]uint8, n)
	for k := 0; k < n; k++ {
		for _, p := range [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]} {
			if p != noDep {
				s.wakeOff[p+1]++
				s.depCount[k]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		s.wakeOff[i] += s.wakeOff[i-1]
	}
	cursor := make([]int32, n)
	copy(cursor, s.wakeOff[:n])
	s.wakeList = make([]int32, s.wakeOff[n])
	for k := 0; k < n; k++ {
		for _, p := range [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]} {
			if p != noDep {
				s.wakeList[cursor[p]] = int32(k)
				cursor[p]++
			}
		}
	}
}

// buildSchedTables folds the per-cycle indirections of the event
// scheduler's hot loop (branch ordinal → correctness, branch → join,
// branch → successor branch) into directly indexed tables, and
// precomputes the initial pending counters and ready lists for both the
// serialization-free and the serialized model families, so each run
// seeds its state with a memcopy instead of an O(n) classification
// pass.
func (s *Sim) buildSchedTables() {
	n := len(s.tr.Ins)
	s.pathCorrect = make([]bool, len(s.pathBranch))
	s.pathJoin = make([]int32, len(s.pathBranch))
	for i, bp := range s.pathBranch {
		s.pathCorrect[i] = bp < 0 || s.correct[s.branchOrd[bp]]
		if bp < 0 {
			s.pathJoin[i] = -1
		} else {
			s.pathJoin[i] = s.joinOf(bp)
		}
	}
	s.nextBranch = make([]int32, n)
	s.misp = make([]bool, n)
	for k := range s.nextBranch {
		s.nextBranch[k] = -1
	}
	for ord, bp := range s.branchPos {
		if ord+1 < len(s.branchPos) {
			s.nextBranch[bp] = s.branchPos[ord+1]
		}
		s.misp[bp] = !s.correct[ord]
	}
	for si := 0; si < 2; si++ {
		pend := make([]uint8, n)
		var rdy []int32
		for k := 0; k < n; k++ {
			p := s.depCount[k]
			if si == 1 && s.branchOrd[k] > 0 {
				p++
			}
			pend[k] = p
			if p == 0 {
				rdy = append(rdy, int32(k))
			}
		}
		s.initPending[si] = pend
		s.initReady[si] = rdy
	}
}

// computeProfile measures per-static-branch prediction accuracy as a
// dense slice indexed by static id (non-branch entries stay zero).
func computeProfile(tr *trace.Trace, branchPos []int32, correct []bool, nStatic int) []float64 {
	hits := make([]int32, nStatic)
	total := make([]int32, nStatic)
	for ord, bp := range branchPos {
		st := tr.Ins[bp].Static
		total[st]++
		if correct[ord] {
			hits[st]++
		}
	}
	out := make([]float64, nStatic)
	for st, t := range total {
		if t > 0 {
			out[st] = float64(hits[st]) / float64(t)
		}
	}
	return out
}

// computeLatencies assigns per-instruction latencies, replaying memory
// accesses through the configured memory system (in dynamic order — the
// standard trace-driven warmup) when one is present. Options.Mem takes
// precedence over Options.Cache; an invalid cache geometry is reported
// as a structured error, not a panic.
func (s *Sim) computeLatencies() error {
	lat := s.opts.Lat.normalized()
	s.lat = make([]int32, len(s.tr.Ins))
	mem := s.opts.Mem
	if mem == nil && s.opts.Cache != nil {
		dc, err := cache.New(*s.opts.Cache)
		if err != nil {
			return &runx.Error{Kind: runx.KindInvalidInput, Stage: "ilpsim.New", Err: err}
		}
		mem = dc
	}
	for i, din := range s.tr.Ins {
		l := lat.of(din.Op)
		if mem != nil {
			switch isa.ClassOf(din.Op) {
			case isa.ClassLoad:
				l = mem.Latency(din.MemAddr)
			case isa.ClassStore:
				mem.Access(din.MemAddr) // stores allocate but retire off the critical path
			}
		}
		if l < 1 {
			l = 1 // a faulty memory system cannot bend time backwards
		}
		s.lat[i] = int32(l)
		if s.lat[i] > s.maxLat {
			s.maxLat = s.lat[i]
		}
	}
	if mem != nil {
		_, _, s.cacheMissRate = mem.Stats()
	}
	return nil
}

// CacheMissRate reports the data-cache miss rate when a cache is
// configured (0 otherwise).
func (s *Sim) CacheMissRate() float64 { return s.cacheMissRate }

// wrongSideWrites returns the write set of the side the machine
// erroneously followed at the mispredicted dynamic branch bpos: the
// opposite of the actual (trace) direction.
func (s *Sim) wrongSideWrites(bpos int32) cfg.WriteSet {
	w := s.sideWrites[s.tr.Ins[bpos].Static]
	if s.tr.Ins[bpos].Taken {
		return w[1] // actually taken: machine went down the fall side
	}
	return w[0]
}

// joinOf returns the join position of the dynamic conditional branch at
// trace position bpos (-1 when unknown).
func (s *Sim) joinOf(bpos int32) int32 { return s.joins[s.branchOrd[bpos]] }

// Accuracy reports the measured predictor accuracy on this trace.
func (s *Sim) Accuracy() float64 { return s.accuracy }

// designP returns the characteristic accuracy used to size static trees.
func (s *Sim) designP() float64 {
	p := s.opts.DesignP
	if p == 0 {
		p = s.accuracy
	}
	// The static-tree formulas need p strictly inside (0.5, 1).
	if p > 0.995 {
		p = 0.995
	}
	if p < 0.505 {
		p = 0.505
	}
	return p
}

// Oracle computes the paper's Oracle datum: eager execution with
// unlimited resources, branches unconstraining — a pure dataflow
// schedule over minimal data dependencies.
func (s *Sim) Oracle() Result {
	n := len(s.tr.Ins)
	finish := make([]int64, n)
	var maxc int64
	for i := 0; i < n; i++ {
		var ready int64
		for _, p := range [3]int32{s.d.dd.Rs[i], s.d.dd.Rt[i], s.d.dd.Mem[i]} {
			if p != noDep && finish[p] > ready {
				ready = finish[p]
			}
		}
		finish[i] = ready + int64(s.lat[i])
		if finish[i] > maxc {
			maxc = finish[i]
		}
	}
	r := Result{ET: -1, Insts: n, Cycles: maxc, Accuracy: s.accuracy}
	r.Speedup = float64(n) / float64(maxc)
	r.Branches = len(s.branchPos)
	return r
}

// nodeOf converts a known-direction prefix into a speculation-tree node:
// a known direction follows the predicted arc, an unknown one the
// not-predicted arc.
func nodeOf(buf []byte, vec []bool, r int) dee.Node {
	buf = buf[:r]
	for i := 0; i < r; i++ {
		if vec[i] {
			buf[i] = byte(dee.Pred)
		} else {
			buf[i] = byte(dee.NotPred)
		}
	}
	return dee.Node(buf)
}

// Run simulates one model at the given branch-path resources. In
// addition to the paper's closed-form shapes (SP, EE, DEE), two
// tree-based reference strategies are supported: dee.DEEPure (the
// Theorem-1 greedy tree at the uniform design accuracy) and
// dee.DEEProfile (the "theoretically perfect" dynamic tree of §3,
// rebuilt from per-branch profiled accuracies whenever the window
// moves — the computation the paper deems impractical in hardware,
// simulated here to quantify the heuristic's loss).
func (s *Sim) Run(m Model, et int) (Result, error) {
	return s.RunContext(context.Background(), m, et)
}

// attribute fills model/ET/cycle attribution on a structured error so a
// failure inside a large sweep can be located without re-running it.
func attribute(e *runx.Error, m Model, et int, cycle int64) *runx.Error {
	if e.Model == "" {
		e.Model = m.String()
	}
	if e.ET == 0 {
		e.ET = et
	}
	if e.Cycle == 0 {
		e.Cycle = cycle
	}
	return e
}

// RunContext is Run with cooperative cancellation and a hardened cycle
// loop: the context is consulted every few thousand cycles (deadline and
// SIGINT turn into typed *runx.Error values), a progress watchdog
// converts stalls into structured deadlock errors carrying a
// cycle/window/heap snapshot, and any panic is recovered at this
// boundary and returned as a *runx.Error with the stack attached.
//
// The run is executed by the event-driven ready-list scheduler
// (sched.go). The retired scan-every-cycle loop (runLegacy) stays
// reachable only through RunLegacyContext, as the differential oracle;
// the two produce cycle-for-cycle identical Results. RunContext is safe
// to call concurrently from multiple goroutines on one Sim.
func (s *Sim) RunContext(ctx context.Context, m Model, et int) (Result, error) {
	const stage = "ilpsim.Run"
	if et < 1 {
		return Result{}, attribute(runx.Newf(runx.KindInvalidInput, stage, "branch-path resources ET must be >= 1, got %d", et), m, et, 0)
	}
	return s.runEvent(ctx, m, et)
}

// RunLegacyContext runs the cell on the retired scan-every-cycle
// reference scheduler. The differential tests and the perf pipeline's
// same-run legacy-vs-event speedup measurement (internal/perf) use it;
// everything else should call RunContext.
func (s *Sim) RunLegacyContext(ctx context.Context, m Model, et int) (Result, error) {
	const stage = "ilpsim.Run"
	if et < 1 {
		return Result{}, attribute(runx.Newf(runx.KindInvalidInput, stage, "branch-path resources ET must be >= 1, got %d", et), m, et, 0)
	}
	return s.runLegacy(ctx, m, et)
}

// runSetup builds the per-run invariants shared by both schedulers: the
// static tree shape, the Result header, and the window depth bound.
func (s *Sim) runSetup(m Model, et int) (shape dee.Shape, res Result, maxDepth int) {
	profile := m.Strategy == dee.DEEProfile
	if !profile {
		shape = dee.NewShape(m.Strategy, s.designP(), et)
	}
	res = Result{
		Model: m, ET: et, Insts: len(s.tr.Ins),
		Branches: len(s.branchPos), Accuracy: s.accuracy,
		TreeML: shape.ML, TreeH: shape.H,
	}
	for _, ok := range s.correct {
		if !ok {
			res.Mispredicts++
		}
	}
	maxDepth = et
	if !profile {
		maxDepth = shape.MaxDepth()
	}
	return shape, res, maxDepth
}

// runLegacy is the retired scan-every-cycle inner loop: every simulated
// cycle rescans every unissued instruction in the window. It is the
// semantic reference the event scheduler is differentially tested
// against (TestSchedulerDifferential, FuzzSchedulerDifferential).
func (s *Sim) runLegacy(ctx context.Context, m Model, et int) (res Result, err error) {
	const stage = "ilpsim.Run"
	var cycle int64
	defer func() {
		// Runs and cycles are counted for both schedulers; the
		// event-path-only series (calendar events, cycle-skips, arena
		// reuse) have no legacy analogue.
		mSimRuns.Inc()
		mSimCycles.Add(cycle)
		if r := recover(); r != nil {
			err = attribute(runx.FromPanic(r, stage), m, et, cycle)
		}
	}()
	vectorCov := m.Strategy == dee.DEEPure || m.Strategy == dee.DEEProfile
	profile := m.Strategy == dee.DEEProfile

	shape, res, maxDepth := s.runSetup(m, et)

	np := s.tr.NumPaths()
	n := len(s.tr.Ins)
	finish := make([]int64, n) // 0 = not issued; else completion cycle
	pathRemaining := make([]int32, np)
	pathDone := make([]int64, np) // completion cycle of the path's latest instruction
	for i := 0; i < n; i++ {
		pathRemaining[s.d.path[i]]++
	}

	known := make([]bool, maxDepth)
	var unknown []int // window depths of unknown-direction branches
	nodeBuf := make([]byte, et+1)
	scratch := make([]bool, et+1)

	// DEE-profile: dynamic greedy tree over per-branch accuracies
	// (s.profAcc), rebuilt when the window root moves.
	var profTree *dee.Tree
	lastHP := -1
	covered := func(vec []bool, r int) bool {
		if profile {
			return profTree.Contains(nodeOf(nodeBuf, vec, r))
		}
		return shape.Covered(vec[:r:r], r)
	}

	hp := 0
	penalty := int64(s.opts.Penalty)
	tick := runx.NewTicker(4096)
	wd := runx.NewWatchdog(int64(s.opts.DeadlockLimit))

	// knownAt reports whether the branch terminating the given absolute
	// path has a usable direction at cycle c: predicted correctly,
	// resolved with the misprediction penalty elapsed, or the path is the
	// branchless trace tail.
	knownAt := func(absPath int, c int64) bool {
		b := s.pathBranch[absPath]
		if b < 0 {
			return true
		}
		if s.correct[s.branchOrd[b]] {
			return true
		}
		f := finish[b]
		return f > 0 && c > f+penalty
	}

	for hp < np {
		cycle++
		if cerr := tick.Check(ctx, stage); cerr != nil {
			cerr.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(cerr, m, et, cycle)
		}
		if cycle > int64(s.opts.DeadlockLimit)+int64(n) {
			e := runx.Newf(runx.KindDeadlock, stage, "exceeded cycle limit %d over %d instructions (hp=%d/%d)", s.opts.DeadlockLimit, n, hp, np)
			e.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(e, m, et, cycle)
		}

		if profile && hp != lastHP {
			ps := make([]float64, 0, maxDepth)
			for d := 0; d < maxDepth && hp+d < np; d++ {
				b := s.pathBranch[hp+d]
				if b < 0 {
					ps = append(ps, 0.995)
					continue
				}
				ps = append(ps, s.profAcc[s.tr.Ins[b].Static])
			}
			if len(ps) == 0 {
				ps = append(ps, 0.9)
			}
			profTree = dee.BuildGreedyLocal(ps, et)
			lastHP = hp
		}

		depth := maxDepth
		if profile && profTree.Height() < depth {
			depth = profTree.Height()
		}
		if hp+depth > np-1 {
			depth = np - 1 - hp
		}
		known = known[:depth]
		unknown = unknown[:0]
		for r := 0; r < depth; r++ {
			known[r] = knownAt(hp+r, cycle)
			if !known[r] {
				unknown = append(unknown, r)
			}
		}

		executed := 0
		for r := 0; r <= depth; r++ {
			ap := hp + r
			if pathRemaining[ap] == 0 {
				continue
			}
			// Base coverage: unknown branches before r, first one's depth.
			fc, ff := 0, -1
			for _, ur := range unknown {
				if ur >= r {
					break
				}
				if fc == 0 {
					ff = ur
				}
				fc++
			}
			baseCov := r == 0
			if !baseCov {
				if vectorCov {
					baseCov = covered(known, r)
				} else {
					baseCov = shape.CoveredCounts(fc, ff, r)
				}
			}
			if !baseCov && m.CDMode == Restrictive {
				continue
			}
			start, end := s.tr.PathBounds(ap)
			for k := start; k < end; k++ {
				if finish[k] != 0 {
					continue
				}
				// Data dependencies: producers must finish strictly earlier.
				ready := true
				for _, p := range [3]int32{s.d.dd.Rs[k], s.d.dd.Rt[k], s.d.dd.Mem[k]} {
					if p != noDep && (finish[p] == 0 || finish[p] >= cycle) {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				// Branch serialization for non-MF models.
				if m.CDMode != CDMF && s.branchOrd[k] > 0 {
					prev := s.branchPos[s.branchOrd[k]-1]
					if finish[prev] == 0 || finish[prev] >= cycle {
						continue
					}
				}
				if !baseCov {
					// CD relaxation: an unknown branch this instruction
					// is control independent of (the trace reached its
					// immediate postdominator before k — the static
					// window never squashed this instruction) does not
					// count against coverage. Total control dependence
					// still binds if the branch's wrong side may have
					// written one of this instruction's operands: the
					// producer instance is then ambiguous until
					// resolution.
					fck, ffk := 0, -1
					if vectorCov {
						copy(scratch[:r], known[:r])
					}
					for _, ur := range unknown {
						if ur >= r {
							break
						}
						bpos := s.pathBranch[hp+ur]
						if j := s.joinOf(bpos); j >= 0 && j <= k {
							w := s.wrongSideWrites(bpos)
							if s.srcMask[k]&w.Regs == 0 && !(s.isLoad[k] && w.Mem) {
								if vectorCov {
									scratch[ur] = true
								}
								continue // relaxed
							}
						}
						if fck == 0 {
							ffk = ur
						}
						fck++
					}
					if vectorCov {
						if !covered(scratch, r) {
							continue
						}
					} else if !shape.CoveredCounts(fck, ffk, r) {
						continue
					}
				}
				finish[k] = cycle + int64(s.lat[k]) - 1
				if finish[k] > pathDone[ap] {
					pathDone[ap] = finish[k]
				}
				pathRemaining[ap]--
				executed++
				if ord := s.branchOrd[k]; ord >= 0 && !s.correct[ord] && r == 0 {
					res.RootResolvedMispredicts++
				}
				if s.opts.PEs > 0 && executed >= s.opts.PEs {
					break
				}
			}
			if s.opts.PEs > 0 && executed >= s.opts.PEs {
				break
			}
		}

		if debugEvery > 0 && cycle%int64(debugEvery) == 0 {
			covCount := 0
			for r := 1; r <= depth; r++ {
				fc, ff := 0, -1
				for _, ur := range unknown {
					if ur >= r {
						break
					}
					if fc == 0 {
						ff = ur
					}
					fc++
				}
				if shape.CoveredCounts(fc, ff, r) {
					covCount++
				}
			}
			remWin := int32(0)
			for r := 0; r <= depth; r++ {
				remWin += pathRemaining[hp+r]
			}
			fmt.Printf("cyc=%d hp=%d depth=%d unknown=%d covered=%d exec=%d remWin=%d\n",
				cycle, hp, depth, len(unknown), covCount, executed, remWin)
		}

		// Advance the tree root past completed paths — but a resolved
		// misprediction holds the root until its restart penalty has
		// elapsed, so squashed work cannot slip into the root path's
		// unconditional coverage a cycle early.
		if executed > res.MaxPEs {
			res.MaxPEs = executed
		}

		for hp < np && pathRemaining[hp] == 0 && pathDone[hp] <= cycle {
			if m.Strategy != dee.EE {
				if b := s.pathBranch[hp]; b >= 0 && !s.correct[s.branchOrd[b]] {
					if cycle+1 <= finish[b]+penalty {
						break
					}
				}
			}
			hp++
		}
		if wd.Step(executed > 0) {
			e := runx.Newf(runx.KindDeadlock, stage, "no forward progress for %d cycles (hp=%d/%d)", wd.Idle(), hp, np)
			e.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(e, m, et, cycle)
		}
	}

	res.Cycles = cycle
	res.Speedup = float64(res.Insts) / float64(cycle)
	res.AvgPEs = res.Speedup // one instruction per PE per cycle
	return res, nil
}
