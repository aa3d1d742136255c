// Package run orchestrates the executions the paper evaluates (§6): the
// Serial baseline (uniprocessor, all data local), the Ideal doall (no
// tests), the software LRPD scheme SW (§2: backup, shadow zero-out,
// marking during the loop, merging and analysis afterwards), and the
// hardware scheme HW (§3: backup, arm the coherence-protocol extensions,
// abort on the first dependence).
//
// A Workload describes a loop nest abstractly (arrays, iteration bodies,
// scheduling preferences); Execute simulates it under a chosen Mode and
// returns cycle counts and Busy/Mem/Sync breakdowns.
package run

import (
	"fmt"
	"slices"

	"specrt/internal/arena"
	"specrt/internal/cache"
	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/lrpd"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/policy"
	"specrt/internal/sched"
	"specrt/internal/sim"
)

// Mode selects the execution scheme.
type Mode uint8

const (
	Serial Mode = iota
	Ideal
	SW
	HW
)

func (m Mode) String() string {
	switch m {
	case Serial:
		return "Serial"
	case Ideal:
		return "Ideal"
	case SW:
		return "SW"
	case HW:
		return "HW"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Modes lists all execution schemes in presentation order.
var Modes = []Mode{Serial, Ideal, SW, HW}

// ArraySpec describes one array a workload touches.
type ArraySpec struct {
	Name     string
	Elems    int
	ElemSize int // 4, 8 or 16 bytes
	// Test selects the run-time test the array needs: core.Plain for
	// compile-time-analyzable arrays, core.NonPriv or core.Priv for
	// arrays under test.
	Test core.Protocol
	// RICO enables read-in/copy-out for privatized arrays.
	RICO bool
	// LiveOut privatized arrays need copy-out after the loop.
	LiveOut bool
	// SparseBackup saves individual elements into the backup just
	// before they are first modified, instead of copying the whole
	// array up front (§2.2.1: "if the pattern of access is sparse, it
	// is better to save individual elements"). Applies to non-privatized
	// arrays under SW and HW.
	SparseBackup bool
}

// Ctx is the emission context a workload body writes its work into.
// Element accesses address arrays logically; the run-time maps them to
// shared or privatized storage and inserts the instrumentation the active
// scheme needs.
type Ctx struct {
	s    *session
	p    int // executing processor
	iter int
	buf  *[]cpu.Instr
}

// Proc returns the executing processor's ID (for processor-dependent
// workload shapes; use sparingly).
func (c *Ctx) Proc() int { return c.p }

// Iter returns the current iteration index.
func (c *Ctx) Iter() int { return c.iter }

// Compute spends cycles of computation.
func (c *Ctx) Compute(cycles sim.Time) {
	*c.buf = append(*c.buf, cpu.Compute(cycles))
}

// Load reads element elem of array arr (index into the workload's
// Arrays).
func (c *Ctx) Load(arr, elem int) { c.s.emitAccess(c, arr, elem, false) }

// Store writes element elem of array arr.
func (c *Ctx) Store(arr, elem int) { c.s.emitAccess(c, arr, elem, true) }

// Exception models a run-time exception raised by this iteration during
// speculative execution — e.g. an out-of-bounds subscript computed from
// a misspeculated value. Under SW and HW the execution aborts and the
// loop restarts serially (§2.2); under Serial and Ideal it is a no-op
// (the exception is an artifact of wrong speculation).
func (c *Ctx) Exception() {
	if c.s.cfg.Mode == SW || c.s.cfg.Mode == HW {
		*c.buf = append(*c.buf, cpu.Exception())
	}
}

// Workload is an abstract loop nest: the unit the paper calls "a loop",
// executed Executions times with varying iteration counts.
type Workload struct {
	Name       string
	Executions int
	// Iterations returns the trip count of execution exec.
	Iterations func(exec int) int
	Arrays     []ArraySpec
	// Body emits the work of one iteration through c, which is valid
	// only for the duration of the call.
	Body func(exec, iter int, c *Ctx)

	// Scheduling per mode. A zero Config means static chunking.
	IdealSched, HWSched, SWSched sched.Config
	// SWProcWise runs the processor-wise software test (§2.2.3), which
	// requires static scheduling.
	SWProcWise bool
}

// Config parameterizes one Execute call.
type Config struct {
	Procs      int
	Mode       Mode
	Contention bool
	// SchedOverride, if non-nil, replaces the workload's preferred
	// schedule for this mode.
	SchedOverride *sched.Config
	// MaxExecutions caps the number of loop executions simulated
	// (0 = all); results are still reported per execution.
	MaxExecutions int
	// LineGrainBits keeps access bits per cache line instead of per
	// word in the HW scheme (granularity ablation; see core.LineGrain).
	LineGrainBits bool
	// EpochIters, when positive, bounds the effective iteration numbers
	// the privatization time stamps must hold (§3.3 overflow support):
	// the HW scheme synchronizes all processors every EpochIters
	// iterations and resets the effective numbering.
	EpochIters int
	// StallWrites makes processors wait for write misses (ablation of
	// §5.1's non-stalling writes).
	StallWrites bool
	// HomeOccMultiplier scales the home directory handler occupancy
	// (>= 1; 0 means 1), modelling a programmable protocol processor in
	// place of the hardwired test logic of Figure 10-(c).
	HomeOccMultiplier int64
	// AdaptiveAfter, when positive, applies the §2.2.4 success-rate
	// heuristic: once that many consecutive executions have failed
	// speculation, the remaining executions run serially instead of
	// paying backup + failed speculation + restore every time.
	AdaptiveAfter int
	// CheckInvariants attaches the internal/check protocol auditor to HW
	// executions: every directory transaction is checked against the
	// §3.2/§3.3 invariants and the quiesced state is audited after each
	// execution's drain. Simulation results are unchanged; the first
	// violation is reported in Result.InvariantErr. Testing/CI use only.
	CheckInvariants bool
	// Topology selects the interconnect model carrying deferred protocol
	// messages and writeback traffic. The default, interconnect.Ideal,
	// is the paper's constant hop cost and reproduces the
	// pre-interconnect simulator bit-for-bit; Bus, Crossbar and Mesh add
	// deterministic per-link queueing (see package interconnect).
	Topology interconnect.Kind
	// Placement selects the home placement of the workload's shared
	// arrays in parallel executions: mem.RoundRobin (the default; §5.2
	// interleaves pages across memory modules), mem.Blocked (contiguous
	// block per node, as first-touch allocation produces), or mem.Local
	// (every page homed on node 0 — the hotspot case). Serial executions
	// always place data local to the single processor.
	Placement mem.Placement
	// DirMode selects the directory's sharer-set representation: the
	// default full-map vector is exact at any processor count (inline to
	// 64 processors, multi-word arena slabs above), while
	// directory.Coarse is the limited-pointer/coarse-vector encoding
	// whose overflow invalidates whole processor groups.
	DirMode directory.Mode
	// MeshW and MeshH give the Mesh topology an explicit rectangular
	// shape (both-or-neither; zero keeps the near-square default). When
	// set, the shape also caps Procs — see Admit.
	MeshW, MeshH int
	// L1Bytes and L2Bytes override the per-processor cache sizes
	// (0 keeps the paper's 32KB/512KB, §5.1). Wide-scale runs shrink
	// them so a 1024-processor machine's cache metadata stays within
	// memory while per-line behaviour is still exercised.
	L1Bytes, L2Bytes int
	// Policy switches the adaptive speculation layer on: with
	// policy.Adaptive, each loop execution is one instance whose
	// strategy (serial, software LRPD, hardware non-priv or priv, plus
	// chunking) is chosen by the Director from the loop's recorded
	// history, instead of Mode statically deciding every instance. The
	// zero value (policy.Off) is the pre-policy behaviour. Adaptive runs
	// are deterministic functions of (workload, config) like static
	// ones. Incompatible with Mode Ideal and with AdaptiveAfter (the
	// policy layer supersedes the §2.2.4 heuristic).
	Policy policy.Kind
	// Director picks the decision procedure of an adaptive run:
	// policy.Static (the paper baseline — every instance runs the
	// statically chosen scheme), policy.Threshold (STU-style confidence
	// ladder) or policy.Cost (predicted-cycles model). Ignored when
	// Policy is off.
	Director policy.DirectorKind
}

// Result reports one Execute call.
type Result struct {
	Workload   string
	Mode       Mode
	Procs      int
	Executions int

	// Cycles is the total simulated time across executions, including
	// any failure handling (restore + serial re-execution).
	Cycles sim.Time
	// Breakdown is the per-processor average time split, accumulated
	// over executions.
	Breakdown cpu.Breakdown

	// Failures counts executions whose speculation failed.
	Failures int
	// Exceptions counts executions aborted by a run-time exception
	// during speculation (§2.2); they restore and re-execute serially
	// like failures.
	Exceptions int
	// SerialFallbacks counts executions that skipped speculation under
	// the §2.2.4 adaptive policy and ran serially from the start.
	SerialFallbacks int
	// FailDetectCycles is, for failed executions, the time from loop
	// start to detection (HW: immediate; SW: after loop + analysis).
	FailDetectCycles sim.Time
	// Verdicts per array name for the last execution (SW mode).
	Verdicts map[string]lrpd.Verdict
	// FirstFailure is the first hardware-detected failure (HW mode).
	FirstFailure *core.Failure

	// InvariantErr is the first protocol-invariant violation found when
	// Config.CheckInvariants is set (nil otherwise, and on clean runs).
	InvariantErr error

	// MachineStats aggregates coherence-protocol events across the run.
	MachineStats machine.Stats
	// CoreStats aggregates speculation-protocol events (HW mode only).
	CoreStats core.Stats

	// NetStats aggregates interconnect link traffic (all-zero under the
	// Ideal topology, which models no links).
	NetStats interconnect.Stats
	// HomeQueue aggregates directory/memory-server queueing across home
	// nodes (meaningful when Config.Contention is set).
	HomeQueue machine.HomeStats

	// Director names the policy director that drove an adaptive run
	// (empty when Config.Policy is off).
	Director string
	// Decisions is the per-instance decision trace of an adaptive run:
	// what the director chose and what came of it, in instance order.
	Decisions []PolicyDecision
	// PolicySwitches counts instances whose chosen strategy differed
	// from the previous instance's.
	PolicySwitches int
	// PolicyMispredicts counts instances whose chosen speculation
	// failed (or excepted) and re-executed serially.
	PolicyMispredicts int
}

// PolicyDecision is one adaptive instance's decision and outcome.
type PolicyDecision struct {
	Instance int
	Strategy policy.Strategy
	// Chunk is the director's chunk override (0 = workload default).
	Chunk int
	// Cycles is the instance's total time, failure handling included.
	Cycles sim.Time
	// Failed reports failed/excepted speculation (re-executed serially).
	Failed bool
	// TouchedPermille is the fraction of tested-array elements the
	// instance accessed, in 1/1000ths.
	TouchedPermille int
	// CopyOutWords is the hardware-privatization copy-out volume.
	CopyOutWords int64
	// Switched marks a strategy change relative to the prior instance.
	Switched bool
}

// MeanCyclesPerExec returns the average execution time of one loop
// instance.
func (r *Result) MeanCyclesPerExec() float64 {
	if r.Executions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Executions)
}

// Speedup returns serial.Cycles / r.Cycles for matching executions.
func Speedup(serial, parallel *Result) float64 {
	if parallel.Cycles == 0 {
		return 0
	}
	return float64(serial.Cycles) / float64(parallel.Cycles)
}

// ProgressFunc observes per-execution progress of one Execute call:
// done of total loop executions have completed. Hooks are invoked
// synchronously on the simulating goroutine between executions; they
// must not block for long and must not call back into the session.
type ProgressFunc func(done, total int)

// Execute simulates workload w under cfg.
//
// Each call builds a private engine, machine and controller, so Execute
// is safe to call concurrently — including for the same *Workload,
// provided the workload's Iterations/Arrays/Body are pure (true for all
// of internal/loops). Results are deterministic functions of (w, cfg):
// the parallel harness executor depends on both properties.
func Execute(w *Workload, cfg Config) (*Result, error) {
	return ExecuteWithProgress(w, cfg, nil)
}

// ExecuteWithProgress is Execute with a per-execution progress hook
// (nil behaves like Execute). Progress never influences the simulation:
// results are byte-identical with and without a hook, so memoizing
// executors can attach observers freely without splitting cache keys.
func ExecuteWithProgress(w *Workload, cfg Config, progress ProgressFunc) (*Result, error) {
	p, err := Admit(w, cfg)
	if err != nil {
		return nil, err
	}
	return p.Execute(progress), nil
}

// MustExecute is Execute for known-good configurations.
func MustExecute(w *Workload, cfg Config) *Result {
	r, err := Execute(w, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Validate checks a (workload, config) pair without simulating: the
// admission Execute performs. Services use it to turn bad requests
// into immediate errors instead of failed jobs.
func Validate(w *Workload, cfg Config) error {
	_, err := Admit(w, cfg)
	return err
}

// Plan is an admitted run: every session its execution may build,
// derived and checked once, by Admit. It holds only small values, never
// a session or per-element storage, and executing it never modifies it,
// so a plan may wait in a queue cheaply and be executed any number of
// times, concurrently, with identical results.
type Plan struct {
	w        *Workload
	cfg      Config
	l1, l2   cache.Config
	director policy.Director // nil for a static run; directors are stateless
	// variants are the sessions the run may build: a static run's one,
	// or an adaptive run's one per policy.Strategy.
	variants []variant
	serial   variant // the one-processor re-execution of a failed instance
}

// variant is one session a plan may build.
type variant struct {
	w     *Workload
	cfg   Config
	procs int          // participating processors
	sched sched.Config // the loop schedule
}

// newVariant derives the session of w under cfg: a serial one runs on
// one processor under static scheduling.
func newVariant(w *Workload, cfg Config) variant {
	v := variant{w: w, cfg: cfg, procs: cfg.Procs}
	switch {
	case cfg.Mode == Serial:
		v.procs, v.sched = 1, sched.Config{Kind: sched.Static}
	case cfg.SchedOverride != nil:
		v.sched = *cfg.SchedOverride
	case cfg.Mode == Ideal:
		v.sched = w.IdealSched
	case cfg.Mode == SW:
		v.sched = w.SWSched
	default:
		v.sched = w.HWSched
	}
	return v
}

// Admit checks w and cfg once, derives every session the run may build
// (a static run's one session or an adaptive run's per-strategy
// variants, plus the serial re-execution of a failed instance) and
// checks each session where sessions differ.
func Admit(w *Workload, cfg Config) (*Plan, error) {
	if w.Executions <= 0 {
		return nil, fmt.Errorf("run: workload %q has no executions", w.Name)
	}
	if w.Iterations == nil || w.Body == nil {
		return nil, fmt.Errorf("run: workload %q missing Iterations or Body", w.Name)
	}
	if len(w.Arrays) == 0 {
		return nil, fmt.Errorf("run: workload %q has no arrays", w.Name)
	}
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("run: need at least one processor")
	}
	if cfg.Procs > directory.MaxProcs {
		return nil, fmt.Errorf("run: procs must be in [1,%d], got %d", directory.MaxProcs, cfg.Procs)
	}
	ncfg := interconnect.Config{Kind: cfg.Topology, Nodes: cfg.Procs, MeshW: cfg.MeshW, MeshH: cfg.MeshH}
	if cap := ncfg.NodeCap(); cap > 0 && cfg.Procs > cap {
		// Without this check the mismatch would only surface deep in XY
		// routing; fail up front and name the topology's bound.
		return nil, fmt.Errorf("run: procs must be in [1,%d] on a %dx%d mesh, got %d",
			cap, cfg.MeshW, cfg.MeshH, cfg.Procs)
	}
	if err := ncfg.Validate(); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if cfg.L1Bytes < 0 || cfg.L2Bytes < 0 {
		return nil, fmt.Errorf("run: negative cache size override")
	}
	p := &Plan{w: w, cfg: cfg}
	p.l1, p.l2 = cacheConfigs(cfg)
	if err := p.l1.Validate(); err != nil {
		return nil, fmt.Errorf("run: L1Bytes %d: %w", cfg.L1Bytes, err)
	}
	if err := p.l2.Validate(); err != nil {
		return nil, fmt.Errorf("run: L2Bytes %d: %w", cfg.L2Bytes, err)
	}
	if p.l1.SizeBytes > p.l2.SizeBytes {
		return nil, fmt.Errorf("run: L1Bytes %d exceeds the %d-byte L2 (inclusion)", p.l1.SizeBytes, p.l2.SizeBytes)
	}
	switch cfg.Policy {
	case policy.Off:
		if cfg.Director != policy.Static {
			return nil, fmt.Errorf("run: director %v requires policy adaptive", cfg.Director)
		}
	case policy.Adaptive:
		if cfg.Mode == Ideal {
			return nil, fmt.Errorf("run: adaptive policy needs a real scheme (serial|sw|hw), not Ideal")
		}
		if cfg.AdaptiveAfter > 0 {
			return nil, fmt.Errorf("run: adaptive policy supersedes AdaptiveAfter (§2.2.4); unset one")
		}
		d, err := policy.New(cfg.Director, policy.Decision{Strategy: staticStrategy(w, cfg.Mode)})
		if err != nil {
			return nil, fmt.Errorf("run: unknown director %d", cfg.Director)
		}
		p.director = d
	default:
		return nil, fmt.Errorf("run: unknown policy %d", cfg.Policy)
	}
	for _, a := range w.Arrays {
		switch a.ElemSize {
		case 4, 8, 16:
		default:
			return nil, fmt.Errorf("run: array %q has unsupported element size %d", a.Name, a.ElemSize)
		}
		if a.Elems <= 0 {
			return nil, fmt.Errorf("run: array %q has no elements", a.Name)
		}
	}

	if p.director == nil {
		p.variants = []variant{newVariant(w, cfg)}
	} else {
		// A director may pick any strategy, so admit every session the
		// run can build.
		for st := policy.Strategy(0); st < policy.NumStrategies; st++ {
			p.variants = append(p.variants, newVariant(strategyVariant(w, cfg, st)))
		}
	}
	// A failed instance re-executes serially on a one-processor machine
	// with local data, per the paper's accounting ("plus the Serial
	// time", §6.2).
	p.serial = newVariant(w, Config{Procs: 1, Mode: Serial, Contention: cfg.Contention,
		Topology: cfg.Topology, L1Bytes: cfg.L1Bytes, L2Bytes: cfg.L2Bytes})
	for _, v := range append(slices.Clip(p.variants), p.serial) {
		if err := p.check(v); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// check admits one session on what differs between a run's sessions:
// the processor-wise SW test needs static scheduling, and the session's
// layout, measured on a space that allocates nothing per element, must
// stay below what the caches can tag (cache.Config.MaxAddr).
func (p *Plan) check(v variant) error {
	if v.cfg.Mode == SW && v.w.SWProcWise && v.sched.Kind != sched.Static {
		return fmt.Errorf("run: processor-wise SW test requires static scheduling, got %v", v.sched.Kind)
	}
	limit := p.l1.MaxAddr()
	if _, fits := layoutSpace(mem.NewMeasure(v.procs), v.w, v.cfg, v.procs, limit); !fits {
		return fmt.Errorf("run: workload %q needs more simulated memory than the %d GB address bound (mode %v, procs=%d)",
			v.w.Name, limit>>30, v.cfg.Mode, v.cfg.Procs)
	}
	return nil
}

// Execute simulates the plan's run, directed by its config's director
// if it is adaptive. Each call builds its own sessions.
func (p *Plan) Execute(progress ProgressFunc) *Result {
	return p.ExecuteDirected(nil, progress)
}

// ExecuteDirected is Execute with the instances of an adaptive plan
// directed by d in place of its config's director (nil keeps that one).
// Harness ablations use it to pin arbitrary static decisions. Callers
// that memoize by Config hash must not cache through a d of their own:
// the hash does not cover it. Without a director, cfg.AdaptiveAfter may
// stop speculation (§2.2.4).
func (p *Plan) ExecuteDirected(d policy.Director, progress ProgressFunc) *Result {
	if d == nil {
		d = p.director
	} else if p.director == nil {
		panic("run: a director needs an adaptive plan")
	}
	w, cfg := p.w, p.cfg
	res := &Result{
		Workload: w.Name,
		Mode:     cfg.Mode,
		Procs:    cfg.Procs,
		Verdicts: make(map[string]lrpd.Verdict),
	}
	// Sessions are built on first use, one per strategy the director
	// picks; a run without a director uses sessions[0] only.
	var sessions [policy.NumStrategies]*session
	var hist *policy.History
	var touched []*arena.Bits
	totalTested := 0
	if d != nil {
		res.Director = d.Name()
		baseChunk := w.HWSched.Chunk
		if baseChunk <= 0 {
			baseChunk = w.SWSched.Chunk
		}
		hist = policy.NewHistory(baseChunk)
		// The variants renumber protocols but never change which arrays
		// are tested, so one bitset per tested array serves them all.
		touched = make([]*arena.Bits, len(w.Arrays))
		for i, a := range w.Arrays {
			if a.Test != core.Plain {
				touched[i] = arena.NewBits(a.Elems)
				totalTested += a.Elems
			}
		}
	}
	execs := w.Executions
	if cfg.MaxExecutions > 0 && cfg.MaxExecutions < execs {
		execs = cfg.MaxExecutions
	}
	if progress != nil {
		progress(0, execs)
	}
	consecFails := 0
	for exec := 0; exec < execs; exec++ {
		var dec policy.Decision
		if d != nil {
			dec = d.Decide(hist)
		}
		if sessions[dec.Strategy] == nil {
			sessions[dec.Strategy] = p.newSession(&p.variants[dec.Strategy])
			sessions[dec.Strategy].polTouched = touched
		}
		s := sessions[dec.Strategy]
		if d != nil {
			s.chunkOverride = dec.Chunk
			for _, b := range touched {
				if b != nil {
					b.Reset()
				}
			}
		}
		cyclesBefore := res.Cycles
		failsBefore := res.Failures + res.Exceptions
		var copyOutBefore uint64
		if s.ctl != nil {
			copyOutBefore = s.ctl.Stats.CopyOuts
		}

		failed := false
		if cfg.AdaptiveAfter > 0 && cfg.Mode != Serial && consecFails >= cfg.AdaptiveAfter {
			// The loop keeps failing: stop speculating (§2.2.4) for the
			// rest of the run.
			cycles, bd := s.serialReexec(exec)
			res.Cycles += cycles
			res.Breakdown.Add(bd)
			res.SerialFallbacks++
		} else {
			s.runOne(exec, res)
			failed = res.Failures+res.Exceptions > failsBefore
			if failed {
				consecFails++
			} else {
				consecFails = 0
			}
		}
		res.Executions++

		if d != nil {
			instCycles := res.Cycles - cyclesBefore
			hist.Record(policy.Outcome{Strategy: dec.Strategy, Failed: failed, Cycles: int64(instCycles)})
			switched := exec > 0 && res.Decisions[exec-1].Strategy != dec.Strategy
			if switched {
				res.PolicySwitches++
			}
			if failed {
				res.PolicyMispredicts++
			}
			var copyOutWords int64
			if s.ctl != nil {
				copyOutWords = int64(s.ctl.Stats.CopyOuts - copyOutBefore)
			}
			tp := 0
			if totalTested > 0 {
				n := 0
				for _, b := range touched {
					if b != nil {
						n += b.Count()
					}
				}
				tp = n * 1000 / totalTested
			}
			res.Decisions = append(res.Decisions, PolicyDecision{
				Instance:        exec,
				Strategy:        dec.Strategy,
				Chunk:           dec.Chunk,
				Cycles:          instCycles,
				Failed:          failed,
				TouchedPermille: tp,
				CopyOutWords:    copyOutWords,
				Switched:        switched,
			})
		}
		if progress != nil {
			progress(exec+1, execs)
		}
	}

	res.HomeQueue.MaxQueueHome = -1
	for _, s := range sessions {
		if s == nil {
			continue
		}
		res.MachineStats.Add(s.m.Stats)
		if s.ctl != nil {
			res.CoreStats.Add(s.ctl.Stats)
		}
		res.NetStats.Add(s.m.Net.Stats())
		res.HomeQueue.Add(s.m.HomeStats())
		// Its stats are collected: hand the caches' frames back to
		// their pool for the next session.
		s.m.Release()
	}
	return res
}
