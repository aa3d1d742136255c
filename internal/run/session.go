package run

import (
	"math"

	"specrt/internal/arena"
	"specrt/internal/cache"
	"specrt/internal/check"
	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/lrpd"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Well-known synchronization IDs.
const (
	phaseBarrier  = 1
	dispenserLock = 1
)

// grabCost is the bookkeeping cost of one dynamic-scheduling dispense
// beyond the lock round trip.
const grabCost = 6

// session holds the simulated state for one Execute call.
type session struct {
	w   *Workload
	cfg Config
	m   *machine.Machine
	ctl *core.Controller
	chk *check.Checker // non-nil when cfg.CheckInvariants (HW mode)
	sys *cpu.System

	procs    int // participating processors
	procIDs  []int
	shared   []mem.Region // one per workload array
	hwArrays []*core.Array
	// slots[i] is the translation stamp slot of workload array i: its
	// controller slot if it is under test in HW, else core.NoArray.
	slots   []uint8
	backups []mem.Region // zero-valued if the array needs no backup

	// Adaptive-policy hooks (nil / zero outside adaptive executions).
	// polTouched[arr], when non-nil, observes which elements of an array
	// under test the current instance accesses; chunkOverride, when
	// positive, replaces the dynamic/block-cyclic chunk size for the
	// current instance (a director's Level-1 coarsening).
	polTouched    []*arena.Bits
	chunkOverride int

	// Software-scheme state. Per-execution bookkeeping lives on
	// epoch-tagged arena tables allocated once per session and reset in
	// O(1) between executions.
	swRd, swWr [][]mem.Region // [array][proc] shadow stamp arrays
	swGlobal   []mem.Region   // [array] merged shadow target
	swPriv     [][]mem.Region // [array][proc] private data copies
	// swTouched[arr] packs the [proc][elem] first-touch (read-in) flags
	// into one flat bitset per array (index p*Elems + elem).
	swTouched []*arena.Bits
	// swLines[arr] packs the [proc][line] marked-global-shadow-line flags
	// into one flat bitset per array (index p*swLineCount[arr] + line),
	// for the sparse merge.
	swLines     []*arena.Bits
	swLineCount []int
	// swShadows are the LRPD shadow arrays the real test marks as the
	// loop is generated (§2.2.2), retained and reset between executions.
	swShadows []*lrpd.Shadows
	// swOps[arr][b] holds the accesses to array arr not yet marked on
	// swShadows[arr]. Under the iteration-wise test b is 0 and the
	// buffer holds the iteration being generated, marked as soon as its
	// Body returns. Under the processor-wise test b is the processor and
	// the buffer holds its chunk, marked as one super-iteration by
	// analyze.
	swOps [][][]lrpd.Op
	// sparseSaved[arr] marks elements already saved by the sparse backup
	// in the current execution.
	sparseSaved []*arena.Bits
	// bufs[p] is processor p's instruction buffer. Every phase's source
	// hands out its batches in it; the phases run one after another, so
	// they share it, and it persists across windows and executions.
	bufs [][]cpu.Instr
	// phaseSteps are the steps of the non-loop phase being run, and
	// phaseGens/phaseSrc the per-processor generators and sources that
	// walk them (SW and HW only), built once per session.
	phaseSteps []phaseStep
	phaseGens  []phaseGen
	phaseSrc   []cpu.Source
	// loopGens/loopSrc are the reusable per-processor generator state of
	// the loop phase, built once per session.
	loopGens []*loopGen
	loopSrc  []cpu.Source
}

// cacheConfigs returns the per-processor cache geometries cfg selects:
// the §5.1 defaults with any L1Bytes/L2Bytes override applied.
func cacheConfigs(cfg Config) (l1, l2 cache.Config) {
	d := machine.DefaultConfig(1)
	l1, l2 = d.L1, d.L2
	if cfg.L1Bytes > 0 {
		l1.SizeBytes = cfg.L1Bytes
	}
	if cfg.L2Bytes > 0 {
		l2.SizeBytes = cfg.L2Bytes
	}
	return l1, l2
}

// sessionProcs returns the processors a session for cfg simulates: a
// serial run uses one.
func sessionProcs(cfg Config) int {
	if cfg.Mode == Serial {
		return 1
	}
	return cfg.Procs
}

func newSession(w *Workload, cfg Config) *session {
	procs := sessionProcs(cfg)
	mcfg := machine.DefaultConfig(procs)
	mcfg.Contention = cfg.Contention
	mcfg.StallWrites = cfg.StallWrites
	mcfg.Net.Kind = cfg.Topology
	mcfg.Net.MeshW, mcfg.Net.MeshH = cfg.MeshW, cfg.MeshH
	mcfg.DirMode = cfg.DirMode
	mcfg.L1, mcfg.L2 = cacheConfigs(cfg)
	if cfg.HomeOccMultiplier > 1 {
		mcfg.Lat.HomeOccLine *= cfg.HomeOccMultiplier
		mcfg.Lat.HomeOccMsg *= cfg.HomeOccMultiplier
	}
	m := machine.MustNew(mcfg)

	s := &session{w: w, cfg: cfg, m: m, procs: procs, bufs: make([][]cpu.Instr, procs)}
	for p := 0; p < procs; p++ {
		s.procIDs = append(s.procIDs, p)
	}

	// validate laid the same space out and found that it fits.
	l, _ := layoutSpace(m.Space, w, cfg, procs, math.MaxUint64)
	s.shared, s.backups = l.shared, l.backups
	s.swRd, s.swWr, s.swPriv, s.swGlobal = l.swRd, l.swWr, l.swPriv, l.swGlobal

	s.slots = make([]uint8, len(w.Arrays))
	for i := range s.slots {
		s.slots[i] = core.NoArray
	}
	if cfg.Mode == HW {
		s.ctl = core.NewController(m)
		s.ctl.LineGrain = cfg.LineGrainBits
		for i, a := range w.Arrays {
			switch a.Test {
			case core.NonPriv:
				s.hwArrays = append(s.hwArrays, s.ctl.AddNonPriv(s.shared[i]))
			case core.Priv:
				s.hwArrays = append(s.hwArrays, s.ctl.AddPriv(s.shared[i], l.hwPriv[i], a.RICO))
			default:
				s.hwArrays = append(s.hwArrays, nil)
				continue
			}
			s.slots[i] = s.hwArrays[i].Slot()
		}
		if cfg.CheckInvariants {
			s.chk = check.Attach(m, s.ctl)
		}
	}

	s.sys = cpu.NewSystem(m, s.ctl)
	s.sys.SetBarrier(phaseBarrier, procs)
	s.loopGens = make([]*loopGen, procs)
	s.loopSrc = make([]cpu.Source, procs)
	for p := range s.loopGens {
		g := &loopGen{}
		s.loopGens[p] = g
		s.loopSrc[p] = g.next
	}

	if cfg.Mode == SW || cfg.Mode == HW {
		s.sparseSaved = make([]*arena.Bits, len(w.Arrays))
		for i, a := range w.Arrays {
			if a.Test == core.NonPriv && a.SparseBackup {
				s.sparseSaved[i] = arena.NewBits(a.Elems)
			}
		}
		s.phaseGens = make([]phaseGen, procs)
		s.phaseSrc = make([]cpu.Source, procs)
		for p := range s.phaseGens {
			g := &s.phaseGens[p]
			g.s, g.p = s, p
			s.phaseSrc[p] = g.next
		}
	}

	if cfg.Mode == SW {
		s.setupSW()
	}
	return s
}

// spaceLayout holds the regions of a session's simulated address
// space, indexed like w.Arrays; an array the mode gives no such region
// has a zero Region or a nil slice there.
type spaceLayout struct {
	shared []mem.Region
	// hwPriv: under HW, one private copy per processor of each
	// privatized array.
	hwPriv [][]mem.Region
	// backups: under SW and HW, the .bak copy of each non-privatized
	// array under test, which the speculative execution modifies in
	// place.
	backups []mem.Region
	// swRd, swWr, swPriv and swGlobal: under SW, each processor's read
	// and write shadows and private copy, and the global shadow.
	swRd, swWr, swPriv [][]mem.Region
	swGlobal           []mem.Region
}

// layoutSpace lays out on sp, in address order, every region a session
// for w under cfg uses on procs processors, and reports whether the
// space stays within limit bytes. It is the one description of that
// layout: newSession allocates from it and validate checks it against
// the caches' address bound on a measuring space (mem.NewMeasure). It
// stops at the first step that passes limit, so an oversized workload
// costs little to reject and no size computation overflows.
func layoutSpace(sp *mem.Space, w *Workload, cfg Config, procs int, limit uint64) (l spaceLayout, fits bool) {
	n := len(w.Arrays)
	over := func() bool { return sp.TotalBytes() > limit }
	place := cfg.Placement
	if cfg.Mode == Serial {
		place = mem.Local
	}
	l.shared = make([]mem.Region, n)
	for i, a := range w.Arrays {
		if uint64(a.Elems) > limit {
			return l, false // its byte size could overflow
		}
		l.shared[i] = sp.Alloc(a.Name, a.Elems, a.ElemSize, place, 0)
		if over() {
			return l, false
		}
	}
	if cfg.Mode == HW {
		l.hwPriv = make([][]mem.Region, n)
		for i, a := range w.Arrays {
			if a.Test == core.Priv {
				l.hwPriv[i] = core.PrivCopies(sp, l.shared[i], procs)
				if over() {
					return l, false
				}
			}
		}
	}
	if cfg.Mode == SW || cfg.Mode == HW {
		l.backups = make([]mem.Region, n)
		for i, a := range w.Arrays {
			if a.Test == core.NonPriv {
				l.backups[i] = sp.Alloc(a.Name+".bak", a.Elems, a.ElemSize, mem.RoundRobin, 0)
				if over() {
					return l, false
				}
			}
		}
	}
	if cfg.Mode == SW {
		l.swRd, l.swWr, l.swPriv = make([][]mem.Region, n), make([][]mem.Region, n), make([][]mem.Region, n)
		l.swGlobal = make([]mem.Region, n)
		for i, a := range w.Arrays {
			if a.Test == core.Plain {
				continue
			}
			ne := shadowElems(w, a.Elems)
			l.swRd[i], l.swWr[i] = make([]mem.Region, procs), make([]mem.Region, procs)
			if a.Test == core.Priv {
				l.swPriv[i] = make([]mem.Region, procs)
			}
			// Each processor's region of a kind shares one name: only
			// mem's panic messages print it.
			rd, wr, priv := a.Name+".rdsh", a.Name+".wrsh", a.Name+".priv"
			for p := 0; p < procs; p++ {
				l.swRd[i][p] = sp.Alloc(rd, ne, 4, mem.Local, p)
				l.swWr[i][p] = sp.Alloc(wr, ne, 4, mem.Local, p)
				if a.Test == core.Priv {
					l.swPriv[i][p] = sp.Alloc(priv, a.Elems, a.ElemSize, mem.Local, p)
				}
			}
			l.swGlobal[i] = sp.Alloc(a.Name+".gsh", ne, 4, mem.RoundRobin, 0)
			if over() {
				return l, false
			}
		}
	}
	return l, true
}

// shadowElems returns the shadow-array length for an array of n elements:
// iteration stamps need one word per element; the processor-wise test
// packs one bit per element into words (§2.2.3).
func shadowElems(w *Workload, n int) int {
	if w.SWProcWise {
		return (n + 31) / 32
	}
	return n
}

func (s *session) setupSW() {
	w := s.w
	s.swTouched = make([]*arena.Bits, len(w.Arrays))
	s.swLines = make([]*arena.Bits, len(w.Arrays))
	s.swLineCount = make([]int, len(w.Arrays))
	s.swShadows = make([]*lrpd.Shadows, len(w.Arrays))
	s.swOps = make([][][]lrpd.Op, len(w.Arrays))
	bufs := 1
	if w.SWProcWise {
		bufs = s.procs
	}
	for i, a := range w.Arrays {
		if a.Test == core.Plain {
			continue
		}
		g := s.swGlobal[i]
		lines := (g.Elems + s.elemsPerLine(g) - 1) / s.elemsPerLine(g)
		s.swLineCount[i] = lines
		s.swLines[i] = arena.NewBits(s.procs * lines)
		s.swShadows[i] = lrpd.NewShadows(a.Elems)
		s.swOps[i] = make([][]lrpd.Op, bufs)
		if a.Test == core.Priv {
			s.swTouched[i] = arena.NewBits(s.procs * a.Elems)
		}
	}
}

// resetSparse clears per-execution sparse-backup state (O(1) epoch
// bumps on the retained bitsets).
func (s *session) resetSparse() {
	for _, b := range s.sparseSaved {
		if b != nil {
			b.Reset()
		}
	}
}

// resetSWExec clears per-execution software state: the shadows, whose
// marks an aborted execution may have left, and the arena tables, which
// reset in O(1). The op buffers keep their capacity.
func (s *session) resetSWExec() {
	for i, sh := range s.swShadows {
		if sh == nil {
			continue
		}
		sh.Reset()
		for b := range s.swOps[i] {
			s.swOps[i][b] = s.swOps[i][b][:0]
		}
	}
	for _, b := range s.swTouched {
		if b != nil {
			b.Reset()
		}
	}
	for _, b := range s.swLines {
		if b != nil {
			b.Reset()
		}
	}
}

// avgBreakdown sums the per-processor breakdowns divided by the
// participant count.
func (s *session) sumBreakdown() cpu.Breakdown {
	var b cpu.Breakdown
	for _, p := range s.sys.Procs {
		b.Add(p.B)
	}
	return b
}

// runOne simulates a single loop execution and accumulates into res.
func (s *session) runOne(exec int, res *Result) {
	eng := s.m.Eng
	s.m.FlushCaches()
	start := eng.Now()
	bdStart := s.sumBreakdown()

	var serialCycles sim.Time
	var serialBd cpu.Breakdown

	s.resetSparse()

	switch s.cfg.Mode {
	case Serial, Ideal:
		s.loopPhase(exec)

	case HW:
		s.runPhase(phaseBackup)
		s.ctl.Arm()
		if s.chk != nil {
			s.chk.Rearm()
		}
		loopStart := eng.Now()
		s.loopPhase(exec)
		if _, aborted := s.sys.Aborted(); !aborted {
			// Drain in-flight protocol messages: a dependence may be
			// detected by a bit-update still in the network.
			eng.Run()
		}
		if s.chk != nil && res.InvariantErr == nil {
			if err := s.chk.Err(); err != nil {
				res.InvariantErr = err
			} else if _, aborted := s.sys.Aborted(); !aborted && s.ctl.Failed() == nil {
				res.InvariantErr = s.chk.CheckQuiesced()
			}
		}
		if _, aborted := s.sys.Aborted(); !aborted {
			// Final writeback: dirty lines of arrays under test merge
			// their tag state into the directory tables, which checks
			// for conflicts that never met during the loop (see
			// npMergeLine). The flush doubles as the between-executions
			// cache flush of §5.2.
			s.m.FlushCaches()
		}
		if f, aborted := s.sys.Aborted(); aborted || s.ctl.Failed() != nil {
			if f == nil {
				f = s.ctl.Failed()
			}
			s.ctl.Disarm()
			if s.sys.Excepted() && f == nil {
				res.Exceptions++
			} else {
				if res.FirstFailure == nil {
					res.FirstFailure = f
				}
				res.Failures++
			}
			res.FailDetectCycles += eng.Now() - loopStart
			s.runPhase(phaseRestore)
			serialCycles, serialBd = s.serialReexec(exec)
		} else {
			s.runPhase(phaseCopyOut)
			s.ctl.Disarm()
		}

	case SW:
		s.resetSWExec()
		s.runPhase(phaseBackup) // backup + shadow zero-out
		loopStart := eng.Now()
		s.loopPhase(exec)
		if s.sys.Excepted() {
			// An exception during the speculative doall: abort, skip
			// the analysis, restore and re-execute serially (§2.2).
			res.Exceptions++
			res.FailDetectCycles += eng.Now() - loopStart
			s.runPhase(phaseRestore)
			serialCycles, serialBd = s.serialReexec(exec)
			break
		}
		s.runPhase(phaseMerge)
		failed := s.analyze(exec, res)
		if failed {
			res.Failures++
			res.FailDetectCycles += eng.Now() - loopStart
			s.runPhase(phaseRestore)
			serialCycles, serialBd = s.serialReexec(exec)
		}
	}

	res.Cycles += (eng.Now() - start) + serialCycles
	bdEnd := s.sumBreakdown()
	delta := cpu.Breakdown{
		Busy: (bdEnd.Busy - bdStart.Busy) / sim.Time(s.procs),
		Mem:  (bdEnd.Mem - bdStart.Mem) / sim.Time(s.procs),
		Sync: (bdEnd.Sync - bdStart.Sync) / sim.Time(s.procs),
	}
	delta.Add(serialBd)
	res.Breakdown.Add(delta)
}

// serialReexec simulates instance exec serially on a fresh uniprocessor
// machine with local data, per the paper's accounting ("plus the Serial
// time", §6.2). Every re-execution gets a machine of its own: one kept
// across re-executions would carry state, such as its memory servers'
// backlog, from one instance into the next.
func (s *session) serialReexec(exec int) (sim.Time, cpu.Breakdown) {
	r := newSession(s.w, Config{Procs: 1, Mode: Serial, Contention: s.cfg.Contention,
		Topology: s.cfg.Topology, L1Bytes: s.cfg.L1Bytes, L2Bytes: s.cfg.L2Bytes})
	var res Result
	r.runOne(exec, &res)
	r.m.Release()
	return res.Cycles, res.Breakdown
}

// markIteration marks the accesses the iteration-wise test buffered
// for iteration iter on the shadows and empties the buffers.
func (s *session) markIteration(iter int) {
	for i, sh := range s.swShadows {
		if sh != nil {
			sh.MarkIteration(iter, s.swOps[i][0])
			s.swOps[i][0] = s.swOps[i][0][:0]
		}
	}
}

// analyze runs the analysis phase of the real LRPD test on the shadows
// marked during the loop, filling res.Verdicts; it returns true if any
// array under test failed. The processor-wise test first marks each
// processor's chunk of the static schedule as the super-iteration
// numbered by the processor (§2.2.3).
func (s *session) analyze(exec int, res *Result) bool {
	failed := false
	for i, a := range s.w.Arrays {
		if a.Test == core.Plain {
			continue
		}
		sh := s.swShadows[i]
		if s.w.SWProcWise {
			for p, ops := range s.swOps[i] {
				sh.MarkIteration(p, ops)
			}
		}
		var v lrpd.Verdict
		if a.Test == core.Priv {
			v = lrpd.AnalyzeWithReadIn(sh).Verdict
		} else {
			v = lrpd.Analyze(sh, false).Verdict
		}
		res.Verdicts[a.Name] = v
		if v == lrpd.NotParallel {
			failed = true
		}
	}
	return failed
}

// elemsPerLine returns how many elements of r fit a cache line.
func (s *session) elemsPerLine(r mem.Region) int {
	n := s.m.LineBytes() / r.ElemSize
	if n < 1 {
		n = 1
	}
	return n
}

// lineSaved reports whether any element of the line starting at e was
// sparse-saved.
func (s *session) lineSaved(arr, e, step int) bool {
	saved := s.sparseSaved[arr]
	n := s.w.Arrays[arr].Elems
	for k := e; k < e+step && k < n; k++ {
		if saved.Get(k) {
			return true
		}
	}
	return false
}
