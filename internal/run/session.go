package run

import (
	"fmt"
	"math"
	"sync"

	"specrt/internal/arena"
	"specrt/internal/cache"
	"specrt/internal/check"
	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/lrpd"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sched"
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
	backups  []mem.Region // zero-valued if the array needs no backup

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
	// swShadows and pwBuf are the retained LRPD shadow arrays and
	// processor-wise op buffer of the analysis phase.
	swShadows []*lrpd.Shadows
	pwBuf     []lrpd.Op
	// sparseSaved[arr] marks elements already saved by the sparse backup
	// in the current execution.
	sparseSaved []*arena.Bits
	trace       [][]lrpd.Op   // [array] recorded accesses of this execution
	staticMap   []sched.Block // schedule used, for the processor-wise test
	// insBuf/srcBuf are the reusable per-processor instruction buffers
	// and sources of the copy and merge phases.
	insBuf [][]cpu.Instr
	srcBuf []cpu.Source
	// loopBufs/loopGens are the reusable per-processor generator state of
	// the loop phase; the generated-instruction buffers persist across
	// windows and executions.
	loopBufs [][]cpu.Instr
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

	s := &session{w: w, cfg: cfg, m: m, procs: procs}
	for p := 0; p < procs; p++ {
		s.procIDs = append(s.procIDs, p)
	}

	// validate laid the same space out and found that it fits.
	l, _ := layoutSpace(m.Space, w, cfg, procs, math.MaxUint64)
	s.shared, s.backups = l.shared, l.backups
	s.swRd, s.swWr, s.swPriv, s.swGlobal = l.swRd, l.swWr, l.swPriv, l.swGlobal

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
			}
		}
		if cfg.CheckInvariants {
			s.chk = check.Attach(m, s.ctl)
		}
	}

	s.sys = cpu.NewSystem(m, s.ctl)
	// The fast path is exact by construction, but invariant-checked runs
	// audit every directory transaction in stepped order, so they pin
	// the stepped path wholesale rather than reason about fused runs.
	s.sys.FastPath = !cfg.NoFastPath && !cfg.CheckInvariants
	s.sys.SetBarrier(phaseBarrier, procs)

	if cfg.Mode == SW || cfg.Mode == HW {
		s.sparseSaved = make([]*arena.Bits, len(w.Arrays))
		for i, a := range w.Arrays {
			if a.Test == core.NonPriv && a.SparseBackup {
				s.sparseSaved[i] = arena.NewBits(a.Elems)
			}
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
// the caches' address bound on a scratch space. It stops at the first
// step that passes limit, so an oversized workload costs little to
// reject and no size computation overflows.
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
			for p := 0; p < procs; p++ {
				l.swRd[i] = append(l.swRd[i], sp.Alloc(nameP(a.Name, "rdsh", p), ne, 4, mem.Local, p))
				l.swWr[i] = append(l.swWr[i], sp.Alloc(nameP(a.Name, "wrsh", p), ne, 4, mem.Local, p))
				if a.Test == core.Priv {
					l.swPriv[i] = append(l.swPriv[i], sp.Alloc(nameP(a.Name, "priv", p), a.Elems, a.ElemSize, mem.Local, p))
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
	s.trace = make([][]lrpd.Op, len(w.Arrays))
	for i := range s.trace {
		s.trace[i] = getOpBuf()
	}
	s.pwBuf = getOpBuf()
	for i, a := range w.Arrays {
		if a.Test == core.Plain {
			continue
		}
		g := s.swGlobal[i]
		lines := (g.Elems + s.elemsPerLine(g) - 1) / s.elemsPerLine(g)
		s.swLineCount[i] = lines
		s.swLines[i] = arena.NewBits(s.procs * lines)
		s.swShadows[i] = lrpd.GetShadows(a.Elems)
		if a.Test == core.Priv {
			s.swTouched[i] = arena.NewBits(s.procs * a.Elems)
		}
	}
}

func nameP(arr, kind string, p int) string {
	return fmt.Sprintf("%s.%s%02d", arr, kind, p)
}

// opBufPool and instrBufPool recycle the big growth buffers (access
// traces, instruction streams) across sessions, so short runs don't pay
// the append-growth cost on every Execute (pointer-boxed Puts).
var (
	opBufPool    sync.Pool
	instrBufPool sync.Pool
)

func getOpBuf() []lrpd.Op {
	if v := opBufPool.Get(); v != nil {
		return (*(v.(*[]lrpd.Op)))[:0]
	}
	return nil
}

func putOpBuf(b []lrpd.Op) {
	if cap(b) > 0 {
		b = b[:0]
		opBufPool.Put(&b)
	}
}

func getInstrBuf() []cpu.Instr {
	if v := instrBufPool.Get(); v != nil {
		return (*(v.(*[]cpu.Instr)))[:0]
	}
	return nil
}

func putInstrBuf(b []cpu.Instr) {
	if cap(b) > 0 {
		b = b[:0]
		instrBufPool.Put(&b)
	}
}

// release hands the session's pooled buffers back once Execute has
// collected its results. The session must not simulate afterwards.
func (s *session) release() {
	for i := range s.trace {
		putOpBuf(s.trace[i])
		s.trace[i] = nil
	}
	putOpBuf(s.pwBuf)
	s.pwBuf = nil
	for p := range s.insBuf {
		putInstrBuf(s.insBuf[p])
		s.insBuf[p] = nil
	}
	for p := range s.loopBufs {
		putInstrBuf(s.loopBufs[p])
		s.loopBufs[p] = nil
	}
	for i, sh := range s.swShadows {
		if sh != nil {
			lrpd.PutShadows(sh)
			s.swShadows[i] = nil
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

// resetSWExec clears per-execution software state; the arena tables
// reset in O(1) and the trace buffers keep their capacity.
func (s *session) resetSWExec() {
	for i := range s.trace {
		s.trace[i] = s.trace[i][:0]
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
		s.copyPhase(false)
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
			s.copyPhase(true) // restore
			serialCycles, serialBd = s.serialReexec(exec)
		} else {
			s.copyOutPhase()
			s.ctl.Disarm()
		}

	case SW:
		s.resetSWExec()
		s.copyPhase(false) // backup + shadow zero-out
		loopStart := eng.Now()
		s.loopPhase(exec)
		if s.sys.Excepted() {
			// An exception during the speculative doall: abort, skip
			// the analysis, restore and re-execute serially (§2.2).
			res.Exceptions++
			res.FailDetectCycles += eng.Now() - loopStart
			s.copyPhase(true)
			serialCycles, serialBd = s.serialReexec(exec)
			break
		}
		s.mergePhase()
		failed := s.analyze(exec, res)
		if failed {
			res.Failures++
			res.FailDetectCycles += eng.Now() - loopStart
			s.copyPhase(true) // restore
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

// serialReexec simulates the failed loop instance serially on a fresh
// uniprocessor machine with local data, per the paper's accounting
// ("plus the Serial time", §6.2).
func (s *session) serialReexec(exec int) (sim.Time, cpu.Breakdown) {
	w1 := &Workload{
		Name:       s.w.Name + ".reexec",
		Executions: 1,
		Iterations: func(int) int { return s.w.Iterations(exec) },
		Arrays:     s.w.Arrays,
		Body:       func(_, iter int, c *Ctx) { s.w.Body(exec, iter, c) },
	}
	r := MustExecute(w1, Config{Procs: 1, Mode: Serial, Contention: s.cfg.Contention,
		Topology: s.cfg.Topology, L1Bytes: s.cfg.L1Bytes, L2Bytes: s.cfg.L2Bytes,
		NoFastPath: s.cfg.NoFastPath})
	return r.Cycles, r.Breakdown
}

// analyze runs the real LRPD test over the recorded trace, filling
// res.Verdicts; it returns true if any array under test failed. The
// shadow arrays are retained per array and reset between executions;
// the processor-wise rewrite reuses one op buffer.
func (s *session) analyze(exec int, res *Result) bool {
	failed := false
	for i, a := range s.w.Arrays {
		if a.Test == core.Plain {
			continue
		}
		ops := s.trace[i]
		if s.w.SWProcWise {
			s.pwBuf = lrpd.ProcessorWise(s.pwBuf[:0], ops, s.chunkOf)
			ops = s.pwBuf
		}
		sh := s.swShadows[i]
		sh.Reset()
		sh.Mark(ops)
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

// chunkOf maps an iteration to its processor under the static schedule
// used by the processor-wise test.
func (s *session) chunkOf(iter int) int {
	for p, b := range s.staticMap {
		if iter >= b.Lo && iter < b.Hi {
			return p
		}
	}
	return 0
}

// elemsPerLine returns how many elements of r fit a cache line.
func (s *session) elemsPerLine(r mem.Region) int {
	n := s.m.LineBytes() / r.ElemSize
	if n < 1 {
		n = 1
	}
	return n
}

// phaseBufs returns the session's reusable per-processor source and
// instruction buffers (the phases run back-to-back, never concurrently).
func (s *session) phaseBufs() []cpu.Source {
	if s.srcBuf == nil {
		s.srcBuf = make([]cpu.Source, s.procs)
		s.insBuf = make([][]cpu.Instr, s.procs)
		for p := range s.insBuf {
			s.insBuf[p] = getInstrBuf()
		}
	}
	return s.srcBuf
}

// copyPhase runs the parallel backup (restore=false) or restore
// (restore=true) of all backed-up arrays, and for SW also the shadow
// zero-out on the backup pass. Work is chunked across processors and
// closed with a barrier.
func (s *session) copyPhase(restore bool) {
	sources := s.phaseBufs()
	for p := 0; p < s.procs; p++ {
		ins := s.insBuf[p][:0]
		for i, a := range s.w.Arrays {
			bak := s.backups[i]
			if bak.Bytes == 0 {
				continue
			}
			if a.SparseBackup && !restore {
				continue // elements save lazily at first write
			}
			src, dst := s.shared[i], bak
			if restore {
				src, dst = dst, src
			}
			step := s.elemsPerLine(src)
			n := src.Elems
			lo, hi := p*n/s.procs, (p+1)*n/s.procs
			for e := lo; e < hi; e += step {
				if a.SparseBackup && !s.lineSaved(i, e, step) {
					continue // nothing of this line was modified
				}
				ins = append(ins, cpu.Load(src.ElemAddr(e)), cpu.Store(dst.ElemAddr(e)), cpu.Compute(1))
			}
		}
		if s.cfg.Mode == SW && !restore {
			// Zero out this processor's own shadow arrays.
			for i, a := range s.w.Arrays {
				if a.Test == core.Plain {
					continue
				}
				for _, sh := range []mem.Region{s.swRd[i][p], s.swWr[i][p]} {
					step := s.elemsPerLine(sh)
					for e := 0; e < sh.Elems; e += step {
						ins = append(ins, cpu.Store(sh.ElemAddr(e)), cpu.Compute(1))
					}
				}
			}
		}
		ins = append(ins, cpu.Barrier(phaseBarrier))
		s.insBuf[p] = ins
		sources[p] = cpu.SliceSource(ins)
	}
	s.sys.Run(s.procIDs, sources)
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

// copyOutPhase charges the copy-out of privatized live-out arrays after a
// successful HW execution (§3.3).
func (s *session) copyOutPhase() {
	need := false
	for i, a := range s.w.Arrays {
		if a.Test == core.Priv && a.LiveOut && s.hwArrays[i] != nil {
			need = true
		}
	}
	if !need {
		return
	}
	sources := make([]cpu.Source, s.procs)
	for p := 0; p < s.procs; p++ {
		p := p
		asked := false
		sources[p] = func(*cpu.Proc) []cpu.Instr {
			if asked {
				return nil
			}
			asked = true
			// The charge is computed when the processor first asks for
			// work: ChargeHomeTransfer reads the home's queue then.
			var lat sim.Time
			for i, a := range s.w.Arrays {
				if a.Test == core.Priv && a.LiveOut {
					lat += s.ctl.CopyOut(s.hwArrays[i], p)
				}
			}
			return []cpu.Instr{cpu.Compute(lat + 1), cpu.Barrier(phaseBarrier)}
		}
	}
	s.sys.Run(s.procIDs, sources)
}

// mergePhase models the SW merging + analysis work (§2.2.2): each
// processor scans its *own* private shadow arrays sequentially (they are
// cache-resident after the zero-out and marking), pushes the lines it
// actually marked into the global shadow arrays, and then analyzes its
// chunk of the merged global shadows. Per-processor work stays constant
// as processors are added (§6.3), which is what limits SW scalability.
func (s *session) mergePhase() {
	sources := s.phaseBufs()
	for p := 0; p < s.procs; p++ {
		ins := s.insBuf[p][:0]
		for i, a := range s.w.Arrays {
			if a.Test == core.Plain {
				continue
			}
			g := s.swGlobal[i]
			step := s.elemsPerLine(g)
			// Scan own shadows (sequential, mostly cache hits).
			for e := 0; e < g.Elems; e += step {
				ins = append(ins,
					cpu.Load(s.swWr[i][p].ElemAddr(e)),
					cpu.Load(s.swRd[i][p].ElemAddr(e)),
					cpu.Compute(2))
			}
			// Sparse merge: update only the global-shadow lines this
			// processor marked. The bitset walk visits lines in
			// increasing order.
			base := p * s.swLineCount[i]
			s.swLines[i].ForEachRange(base, base+s.swLineCount[i], func(idx int) {
				e := (idx - base) * step
				if e >= g.Elems {
					e = g.Elems - 1
				}
				ins = append(ins,
					cpu.Load(g.ElemAddr(e)),
					cpu.Compute(sim.Time(step)),
					cpu.Store(g.ElemAddr(e)))
			})
			ins = append(ins, cpu.Barrier(phaseBarrier))
			// Analysis: each processor checks its chunk of the merged
			// global shadows.
			lo, hi := p*g.Elems/s.procs, (p+1)*g.Elems/s.procs
			for e := lo; e < hi; e += step {
				ins = append(ins, cpu.Load(g.ElemAddr(e)), cpu.Compute(sim.Time(step)))
			}
		}
		ins = append(ins, cpu.Barrier(phaseBarrier))
		s.insBuf[p] = ins
		sources[p] = cpu.SliceSource(ins)
	}
	s.sys.Run(s.procIDs, sources)
}
