package run

import (
	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// phaseBatch bounds the instructions a phase source hands out per
// request: a phase never holds more of a processor's instructions than
// this, however large its arrays.
const phaseBatch = 256

// maxStepInstrs is the most instructions a phase step emits per element.
const maxStepInstrs = 3

// phase selects which of the non-loop phases runPhase runs.
type phase uint8

const (
	// phaseBackup is the parallel backup of every array under test that
	// needs one, and under SW also the shadow zero-out.
	phaseBackup phase = iota
	// phaseRestore copies the backups back after a failure.
	phaseRestore
	// phaseMerge is the SW merge, scan and analysis.
	phaseMerge
	// phaseCopyOut charges the HW copy-out of privatized live-out arrays
	// after a successful execution (§3.3).
	phaseCopyOut
)

// stepOp is what a phase step does with each element (or marked line)
// of its range.
type stepOp uint8

const (
	opBackup  stepOp = iota // this processor's chunk: load shared, store backup, compute 1
	opRestore               // this processor's chunk: load backup, store shared, compute 1
	opZeroRd                // own read shadow: store, compute 1
	opZeroWr                // own write shadow: store, compute 1
	opScan                  // own shadows, per global line: load write, load read, compute 2
	opMerge                 // own marked lines: load global, compute line, store global
	opAnalyze               // this processor's chunk of the global shadow: load, compute line
	opBarrier               // the phase barrier, once
	opCopyOut               // the copy-out charge, once
)

// A phaseStep is one step of a phase, the same for every processor: its
// op on array arr.
type phaseStep struct {
	op  stepOp
	arr int
}

// phaseGen generates one processor's instructions for the non-loop
// phases, one step of the session's phaseSteps after another. A session
// builds one per processor, once. Entering a step resolves its regions
// and element range for the processor; next then hands out at most
// phaseBatch instructions per request, in the processor's session-owned
// buffer. Batch boundaries cost no simulated time (cpu.Proc.next), so the
// instruction stream is the same however it is cut.
//
// The state the steps read lazily is not written while a phase runs: the
// sparse-saved sets (read by the restore) change only in the loop phase,
// and so do the SW marked-line sets (read by the merge).
type phaseGen struct {
	s   *session
	p   int
	buf []cpu.Instr

	si     int         // the step being generated
	a, b   *mem.Region // its regions
	sa, sb uint8       // and their translation stamp slots
	e, hi  int         // its next element (or marked-line bit) and bound
	stride int         // its elements per line
	base   int         // opMerge: the processor's first line bit
	sparse bool        // opRestore: skip lines the sparse backup did not save
}

// layPhase lays out the steps of phase ph in s.phaseSteps.
func (s *session) layPhase(ph phase) {
	st := s.phaseSteps[:0]
	switch ph {
	case phaseBackup, phaseRestore:
		op := opBackup
		if ph == phaseRestore {
			op = opRestore
		}
		for i, a := range s.w.Arrays {
			if s.backups[i].Bytes == 0 || a.SparseBackup && op == opBackup {
				continue // no backup, or elements save lazily at first write
			}
			st = append(st, phaseStep{op, i})
		}
		if s.cfg.Mode == SW && op == opBackup {
			for i, a := range s.w.Arrays {
				if a.Test != core.Plain {
					st = append(st, phaseStep{opZeroRd, i}, phaseStep{opZeroWr, i})
				}
			}
		}
	case phaseMerge:
		for i, a := range s.w.Arrays {
			if a.Test != core.Plain {
				st = append(st, phaseStep{opScan, i}, phaseStep{opMerge, i},
					phaseStep{opBarrier, i}, phaseStep{opAnalyze, i})
			}
		}
	case phaseCopyOut:
		st = append(st, phaseStep{op: opCopyOut})
	}
	s.phaseSteps = append(st, phaseStep{op: opBarrier})
}

// enter starts step si for the generator's processor.
func (g *phaseGen) enter(si int) {
	s, p := g.s, g.p
	if g.si = si; si == len(s.phaseSteps) {
		return
	}
	st := s.phaseSteps[si]
	g.e, g.hi, g.stride, g.sparse = 0, 1, 1, false // a once-only step
	g.sa, g.sb = core.NoArray, core.NoArray        // only shared arrays are under test
	switch st.op {
	case opBackup, opRestore:
		g.a, g.b = &s.shared[st.arr], &s.backups[st.arr]
		g.sa = s.slots[st.arr]
		if st.op == opRestore {
			g.a, g.b = g.b, g.a
			g.sa, g.sb = g.sb, g.sa
			g.sparse = s.w.Arrays[st.arr].SparseBackup
		}
		n := g.a.Elems
		g.e, g.hi, g.stride = p*n/s.procs, (p+1)*n/s.procs, s.elemsPerLine(*g.a)
	case opZeroRd, opZeroWr:
		g.a = &s.swRd[st.arr][p]
		if st.op == opZeroWr {
			g.a = &s.swWr[st.arr][p]
		}
		g.hi, g.stride = g.a.Elems, s.elemsPerLine(*g.a)
	case opScan, opMerge, opAnalyze:
		gsh := &s.swGlobal[st.arr]
		g.a, g.stride = gsh, s.elemsPerLine(*gsh)
		switch st.op {
		case opScan:
			g.a, g.b = &s.swWr[st.arr][p], &s.swRd[st.arr][p]
			g.hi = gsh.Elems
		case opMerge:
			g.base = p * s.swLineCount[st.arr]
			g.e, g.hi = g.base, g.base+s.swLineCount[st.arr]
		case opAnalyze:
			g.e, g.hi = p*gsh.Elems/s.procs, (p+1)*gsh.Elems/s.procs
		}
	}
}

// next is the processor's cpu.Source: it refills the buffer with up to
// phaseBatch instructions, returning an empty batch once every step is
// done.
func (g *phaseGen) next(*cpu.Proc) []cpu.Instr {
	g.buf = g.buf[:0]
	for len(g.buf) <= phaseBatch-maxStepInstrs && g.si < len(g.s.phaseSteps) {
		if !g.emit() {
			g.enter(g.si + 1)
		}
	}
	return g.buf
}

// emit appends the current step's instructions for its next element and
// advances past it, or reports false if the step is done.
func (g *phaseGen) emit() bool {
	s, a, st := g.s, g.a, g.s.phaseSteps[g.si]
	if st.op == opMerge {
		// Sparse merge: update only the global-shadow lines this
		// processor marked, in increasing line order.
		idx := s.swLines[st.arr].Next(g.e, g.hi)
		if idx >= g.hi {
			return false
		}
		g.e = idx + 1
		e := (idx - g.base) * g.stride
		if e >= a.Elems {
			e = a.Elems - 1
		}
		g.buf = append(g.buf, cpu.LoadElem(a.ElemAddr(e), g.sa, e), cpu.Compute(sim.Time(g.stride)), cpu.StoreElem(a.ElemAddr(e), g.sa, e))
		return true
	}
	if g.sparse {
		for g.e < g.hi && !s.lineSaved(st.arr, g.e, g.stride) {
			g.e += g.stride // nothing of this line was modified
		}
	}
	if g.e >= g.hi {
		return false
	}
	e := g.e
	g.e += g.stride
	switch st.op {
	case opBackup, opRestore:
		g.buf = append(g.buf, cpu.LoadElem(a.ElemAddr(e), g.sa, e), cpu.StoreElem(g.b.ElemAddr(e), g.sb, e), cpu.Compute(1))
	case opZeroRd, opZeroWr:
		g.buf = append(g.buf, cpu.StoreElem(a.ElemAddr(e), g.sa, e), cpu.Compute(1))
	case opScan:
		// Scan own shadows (sequential, mostly cache hits).
		g.buf = append(g.buf, cpu.LoadElem(a.ElemAddr(e), g.sa, e), cpu.LoadElem(g.b.ElemAddr(e), g.sb, e), cpu.Compute(2))
	case opAnalyze:
		// Analysis: check this processor's chunk of the merged global
		// shadows.
		g.buf = append(g.buf, cpu.LoadElem(a.ElemAddr(e), g.sa, e), cpu.Compute(sim.Time(g.stride)))
	case opBarrier:
		g.buf = append(g.buf, cpu.Barrier(phaseBarrier))
	case opCopyOut:
		// The charge is computed when the processor first asks for
		// work: ChargeHomeTransfer reads the home's queue then.
		var lat sim.Time
		for i, arr := range s.w.Arrays {
			if arr.Test == core.Priv && arr.LiveOut {
				lat += s.ctl.CopyOut(s.hwArrays[i], g.p)
			}
		}
		g.buf = append(g.buf, cpu.Compute(lat+1))
	}
	return true
}

// runPhase runs phase ph on every processor, each closing it with the
// phase barrier. The backup and restore are chunked across processors;
// the merge models the SW merging and analysis work of §2.2.2: each
// processor scans its own private shadow arrays sequentially (they are
// cache-resident after the zero-out and marking), pushes the lines it
// actually marked into the global shadow arrays, and then analyzes its
// chunk of the merged global shadows. Per-processor merge work stays
// constant as processors are added (§6.3), which is what limits SW
// scalability. The copy-out runs only if some privatized array is live
// out.
func (s *session) runPhase(ph phase) {
	if ph == phaseCopyOut && !s.copiesOut() {
		return
	}
	s.layPhase(ph)
	for p := range s.phaseGens {
		g := &s.phaseGens[p]
		g.buf = s.bufs[p][:0]
		g.enter(0)
	}
	s.sys.Run(s.procIDs, s.phaseSrc)
	for p := range s.phaseGens {
		s.bufs[p] = s.phaseGens[p].buf
	}
}

// copiesOut reports whether a successful HW execution copies out a
// privatized live-out array.
func (s *session) copiesOut() bool {
	for i, a := range s.w.Arrays {
		if a.Test == core.Priv && a.LiveOut && s.hwArrays[i] != nil {
			return true
		}
	}
	return false
}
