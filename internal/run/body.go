package run

import (
	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/lrpd"
	"specrt/internal/sched"
)

// emitAccess translates a logical array access into instructions for the
// active mode: a bare load/store (Serial, Ideal, HW), or the instrumented
// form the software scheme requires (shadow marking, privatized storage,
// read-in). Every load and store carries its translation stamp (the
// array's slot and the element), so the HW controller applies its
// protocol without looking the address up again.
func (s *session) emitAccess(c *Ctx, arr, elem int, write bool) {
	// Pointers, not copies: this runs once per logical access, and an
	// ArraySpec/Region copy per call is measurable at that volume.
	spec := &s.w.Arrays[arr]
	shared := &s.shared[arr]
	slot := s.slots[arr]
	buf := c.buf

	if s.polTouched != nil {
		// Adaptive policy observation: every access to an array under
		// test marks its element, feeding the touched-fraction signal.
		if b := s.polTouched[arr]; b != nil {
			b.Set(elem)
		}
	}

	if write && spec.SparseBackup && spec.Test == core.NonPriv &&
		(s.cfg.Mode == SW || s.cfg.Mode == HW) && !s.sparseSaved[arr].Get(elem) {
		// Save the element just before it is first modified (§2.2.1).
		s.sparseSaved[arr].Set(elem)
		*buf = append(*buf,
			cpu.LoadElem(shared.ElemAddr(elem), slot, elem),
			cpu.StoreElem(s.backups[arr].ElemAddr(elem), core.NoArray, elem),
			cpu.Compute(1))
	}

	if s.cfg.Mode != SW || spec.Test == core.Plain {
		if write {
			*buf = append(*buf, cpu.StoreElem(shared.ElemAddr(elem), slot, elem))
		} else {
			*buf = append(*buf, cpu.LoadElem(shared.ElemAddr(elem), slot, elem))
		}
		return
	}

	// Software scheme: buffer the access for the real LRPD marking and
	// emit the marking instructions of §2.2.2.
	p := c.p
	shIdx, b := elem, 0
	if s.w.SWProcWise {
		shIdx, b = elem/32, p
	}
	s.swOps[arr][b] = append(s.swOps[arr][b], lrpd.Op{Iter: c.iter, Elem: elem, Write: write})
	s.swLines[arr].Set(p*s.swLineCount[arr] + shIdx/s.elemsPerLine(s.swGlobal[arr]))
	// SW runs have no controller: nothing is under test in hardware.
	const no = core.NoArray
	wrSh := s.swWr[arr][p].ElemAddr(shIdx)
	rdSh := s.swRd[arr][p].ElemAddr(shIdx)

	if write {
		// markwrite: check/update the write shadow stamp.
		*buf = append(*buf,
			cpu.LoadElem(wrSh, no, shIdx), cpu.Compute(2), cpu.StoreElem(wrSh, no, shIdx))
		if spec.Test == core.Priv {
			s.swTouched[arr].Set(p*spec.Elems + elem)
			*buf = append(*buf, cpu.StoreElem(s.swPriv[arr][p].ElemAddr(elem), no, elem))
		} else {
			*buf = append(*buf, cpu.StoreElem(shared.ElemAddr(elem), no, elem))
		}
		return
	}

	// markread: check the write shadow (same-iteration write?) and
	// update the read shadows.
	*buf = append(*buf,
		cpu.LoadElem(wrSh, no, shIdx), cpu.LoadElem(rdSh, no, shIdx), cpu.Compute(2), cpu.StoreElem(rdSh, no, shIdx))
	if spec.Test == core.Priv {
		if !s.swTouched[arr].Get(p*spec.Elems + elem) {
			// Read-in: first touch by this processor fetches the
			// shared value into the private copy.
			s.swTouched[arr].Set(p*spec.Elems + elem)
			*buf = append(*buf, cpu.LoadElem(shared.ElemAddr(elem), no, elem),
				cpu.StoreElem(s.swPriv[arr][p].ElemAddr(elem), no, elem))
		}
		*buf = append(*buf, cpu.LoadElem(s.swPriv[arr][p].ElemAddr(elem), no, elem))
	} else {
		*buf = append(*buf, cpu.LoadElem(shared.ElemAddr(elem), no, elem))
	}
}

// loopGen lazily generates one processor's loop-phase instruction stream:
// scheduling (static, block-cyclic, or lock-dispensed dynamic blocks),
// per-superiteration BeginIter markers for the hardware scheme, the
// workload body, and the closing barrier.
type loopGen struct {
	s    *session
	p    int
	exec int

	buf []cpu.Instr
	// ctx is handed to every iteration's Body call, refilled with the
	// iteration number each time: a Body must not keep it past the call.
	ctx Ctx

	blocks []sched.Block // static / block-cyclic assignment
	bi     int
	disp   *sched.Dispenser // dynamic (shared across processors)
	// shiftLo converts the dispenser's window-relative iteration
	// numbers to global ones (epoch windows, §3.3).
	shiftLo int

	cur       sched.Block
	curIter   int
	haveBlock bool
	grabbing  bool // dynamic: the lock/grab sequence is in flight
	finished  bool
}

// next is the processor's cpu.Source: it resets the buffer and generates
// until it holds instructions or the schedule is finished. The processor
// asks only once it has used up the previous batch, so generation — which
// consumes shared scheduling state (the dynamic dispenser) and marks the
// LRPD shadows — stays tied to consumption order, and the buffer's
// backing array is free to reuse.
func (g *loopGen) next(*cpu.Proc) []cpu.Instr {
	g.buf = g.buf[:0]
	for len(g.buf) == 0 && !g.finished {
		g.generate()
	}
	return g.buf
}

// generate refills the buffer with the next unit of work.
func (g *loopGen) generate() {
	s := g.s
	if g.haveBlock && g.curIter < g.cur.Hi {
		// Emit one iteration of the current block.
		g.ctx.iter = g.curIter
		s.w.Body(g.exec, g.curIter, &g.ctx)
		if s.cfg.Mode == SW && !s.w.SWProcWise {
			s.markIteration(g.curIter)
		}
		g.curIter++
		return
	}
	g.haveBlock = false

	// Acquire the next block.
	if g.disp != nil {
		if !g.grabbing {
			// Model the lock-protected dispense.
			g.grabbing = true
			g.buf = append(g.buf,
				cpu.LockAcq(dispenserLock), cpu.Compute(grabCost), cpu.LockRel(dispenserLock))
			return
		}
		g.grabbing = false
		b, ok := g.disp.Next()
		if !ok {
			g.finish()
			return
		}
		b.Lo += g.shiftLo
		b.Hi += g.shiftLo
		g.startBlock(b)
		return
	}
	if g.bi < len(g.blocks) {
		b := g.blocks[g.bi]
		g.bi++
		if b.Lo >= b.Hi {
			return // empty chunk; loop again
		}
		g.startBlock(b)
		return
	}
	g.finish()
}

func (g *loopGen) startBlock(b sched.Block) {
	g.cur = b
	g.curIter = b.Lo
	g.haveBlock = true
	if g.s.cfg.Mode == HW {
		// One superiteration per block: the hardware clears the
		// per-iteration tag bits and tags accesses with the block's
		// time stamp (§4.1).
		g.buf = append(g.buf, cpu.BeginIter(b.Super))
	}
}

func (g *loopGen) finish() {
	g.finished = true
	if g.s.procs > 1 {
		g.buf = append(g.buf, cpu.Barrier(phaseBarrier))
	}
}

// loopPhase runs the loop body phase of one execution under the mode's
// schedule. With EpochIters set (HW mode), the iteration space is
// executed in windows separated by all-processor synchronizations that
// reset the effective time-stamp numbering (§3.3 overflow support).
func (s *session) loopPhase(exec int) {
	iters := s.w.Iterations(exec)
	windows := [][2]int{{0, iters}}
	if s.cfg.Mode == HW && s.cfg.EpochIters > 0 && s.cfg.EpochIters < iters {
		windows = windows[:0]
		for lo := 0; lo < iters; lo += s.cfg.EpochIters {
			hi := lo + s.cfg.EpochIters
			if hi > iters {
				hi = iters
			}
			windows = append(windows, [2]int{lo, hi})
		}
	}
	for i, win := range windows {
		s.loopWindow(exec, win[0], win[1])
		if i < len(windows)-1 {
			s.ctl.EpochSync()
			if s.chk != nil {
				// The epoch reset rewinds effective iteration numbers;
				// the checker resnapshots its stamp mirrors.
				s.chk.Resync()
			}
		}
	}
}

// loopWindow schedules and executes iterations [lo, hi).
func (s *session) loopWindow(exec, lo, hi int) {
	iters := hi - lo
	cfg := s.sched
	if s.chunkOverride > 0 && (cfg.Kind == sched.Dynamic || cfg.Kind == sched.BlockCyclic) {
		cfg.Chunk = s.chunkOverride
	}

	// Schedulers operate on window-relative indices; blocks are shifted
	// to global iteration numbers afterwards. Super numbers restart per
	// window, matching the effective-iteration reset.
	shift := func(dst []sched.Block, bs []sched.Block) []sched.Block {
		for _, b := range bs {
			dst = append(dst, sched.Block{Lo: b.Lo + lo, Hi: b.Hi + lo, Super: b.Super})
		}
		return dst
	}

	var disp *sched.Dispenser
	var static []sched.Block
	switch cfg.Kind {
	case sched.Dynamic:
		disp = sched.NewDispenser(iters, cfg.Chunk)
	case sched.Static:
		static = sched.StaticBlocks(iters, s.procs)
	}

	for p := 0; p < s.procs; p++ {
		g := s.loopGens[p]
		*g = loopGen{s: s, p: p, exec: exec, disp: disp, shiftLo: lo,
			buf: s.bufs[p][:0], blocks: g.blocks[:0]}
		g.ctx = Ctx{s: s, p: p, buf: &g.buf}
		switch cfg.Kind {
		case sched.Static:
			g.blocks = shift(g.blocks, static[p:p+1])
		case sched.BlockCyclic:
			g.blocks = shift(g.blocks, sched.BlockCyclicBlocks(iters, s.procs, cfg.Chunk)[p])
		}
	}
	s.sys.Run(s.procIDs, s.loopSrc)
	for p, g := range s.loopGens {
		s.bufs[p] = g.buf
	}
}
