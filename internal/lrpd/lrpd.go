// Package lrpd implements the software LRPD test of Rauchwerger and Padua
// that the paper uses as its baseline (§2): speculative run-time
// parallelization of loops with privatization, using shadow arrays marked
// during a speculative doall execution and analyzed afterwards.
//
// Two layers are provided:
//
//   - A pure test (Test, TestWithReadIn) over recorded access traces:
//     the Marking and Analysis phases of §2.2.2, including the
//     privatization conditions and the read-in extension of §2.2.3.
//     The simulated SW scheme of package run uses these semantics for
//     its pass/fail ground truth, marking each (super-)iteration with
//     MarkIteration as its accesses are generated.
//
//   - A real, host-parallel speculative executor (DoAll) that runs a Go
//     loop body across goroutines with per-worker privatized storage and
//     shadow marking, merges and analyzes the shadows, and either
//     copies out the speculative results (test passed) or re-executes
//     the loop serially (test failed). This is a usable library in its
//     own right.
package lrpd

import (
	"fmt"
	"math"
	"math/bits"
)

// Op is one access to the array under test, recorded in program order.
type Op struct {
	Iter  int  // iteration executing the access (0-based)
	Elem  int  // element index
	Write bool // true for a store
}

// Verdict classifies a loop with respect to one array under test.
type Verdict uint8

const (
	// NotParallel: a cross-iteration flow dependence (or an
	// unremovable pattern) was detected; the loop must run serially.
	NotParallel Verdict = iota
	// DoallNoPriv: the loop is fully parallel as-is.
	DoallNoPriv
	// DoallWithPriv: the loop is fully parallel after privatizing the
	// array.
	DoallWithPriv
)

func (v Verdict) String() string {
	switch v {
	case NotParallel:
		return "not-parallel"
	case DoallNoPriv:
		return "doall"
	case DoallWithPriv:
		return "doall-with-privatization"
	}
	return fmt.Sprintf("Verdict(%d)", uint8(v))
}

// Bitset is a dense bit vector, the literal shadow-array layout of §2.2.2:
// one bit per element of the array under test.
type Bitset []uint64

// NewBitset returns a cleared bitset covering n elements.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Get reports whether bit i is set.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Or folds other into b word-wise.
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the lowest set bit index, or -1 when the bitset is empty.
func (b Bitset) First() int {
	for wi, w := range b {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// firstAnd returns the lowest index set in both b and other, or -1.
func firstAnd(b, other Bitset) int {
	for wi, w := range b {
		if m := w & other[wi]; m != 0 {
			return wi*64 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// Shadows holds the marking-phase shadow arrays of §2.2.2 for inspection
// and for the merging phase of the parallel implementation. The bit
// shadows (Ar, Aw, Anp) are stored one bit per element, as in the paper;
// the read-in time stamps are one int32 per element.
type Shadows struct {
	n   int
	Ar  Bitset // read and not written in the same iteration
	Aw  Bitset // written
	Anp Bitset // read before any same-iteration write (non-privatizable)
	Atw int    // total (per-iteration distinct) elements written
	// MinW and MaxR1st support the read-in extension (§2.2.3): lowest
	// writing iteration and highest read-first iteration per element,
	// using 1-based iterations; 0 means none.
	MinW    []int32
	MaxR1st []int32
	// mark holds the marking phase's stamp arrays, allocated on the
	// first marked iteration and retained so that a Shadows reset and
	// reused across executions marks without allocating.
	mark *markScratch
}

// NewShadows allocates zeroed shadow arrays for an array of n elements.
func NewShadows(n int) *Shadows {
	return &Shadows{
		n:       n,
		Ar:      NewBitset(n),
		Aw:      NewBitset(n),
		Anp:     NewBitset(n),
		MinW:    make([]int32, n),
		MaxR1st: make([]int32, n),
	}
}

// Len returns the number of elements the shadows cover.
func (s *Shadows) Len() int { return s.n }

// Reset clears the shadows for reuse, keeping the marking scratch.
func (s *Shadows) Reset() {
	clear(s.Ar)
	clear(s.Aw)
	clear(s.Anp)
	clear(s.MinW)
	clear(s.MaxR1st)
	s.Atw = 0
}

// Merge folds other into s (the merging phase: private shadow arrays are
// merged into the global ones). The bit shadows merge word-wise.
func (s *Shadows) Merge(other *Shadows) {
	s.Ar.Or(other.Ar)
	s.Aw.Or(other.Aw)
	s.Anp.Or(other.Anp)
	for i := range s.MinW {
		if other.MinW[i] != 0 && (s.MinW[i] == 0 || other.MinW[i] < s.MinW[i]) {
			s.MinW[i] = other.MinW[i]
		}
		if other.MaxR1st[i] > s.MaxR1st[i] {
			s.MaxR1st[i] = other.MaxR1st[i]
		}
	}
	s.Atw += other.Atw
}

// markScratch is the reusable per-iteration state of the marking phase.
// The per-iteration "written in this iteration" / "written so far" /
// "read first" sets are stamp arrays: a slot belongs to the current
// iteration only when it holds the current stamp, so starting a new
// iteration is one counter increment instead of a map allocation.
type markScratch struct {
	wIter  []int32 // stamp: element written somewhere in this iteration
	wSoFar []int32 // stamp: element written before this point
	rFirst []int32 // stamp: element already read-first in this iteration
	stamp  int32
}

// scratch returns the lazily-allocated marking scratch.
func (s *Shadows) scratch() *markScratch {
	if s.mark == nil {
		s.mark = &markScratch{
			wIter:  make([]int32, s.n),
			wSoFar: make([]int32, s.n),
			rFirst: make([]int32, s.n),
		}
	}
	return s.mark
}

// nextStamp advances the iteration stamp, clearing the stamp arrays on
// the (practically unreachable) int32 wrap.
func (m *markScratch) nextStamp() int32 {
	if m.stamp == math.MaxInt32 {
		clear(m.wIter)
		clear(m.wSoFar)
		clear(m.rFirst)
		m.stamp = 0
	}
	m.stamp++
	return m.stamp
}

// Mark runs the marking phase over a recorded trace. Accesses of one
// iteration must appear in program order relative to each other, but
// iterations may interleave arbitrarily (as they do in a parallel
// execution): ops are grouped by iteration, and each group is marked
// with MarkIteration.
func (s *Shadows) Mark(ops []Op) {
	groupIdx := make(map[int]int) // iteration -> group, in first-seen order
	var groups [][]Op
	for _, op := range ops {
		gi, ok := groupIdx[op.Iter]
		if !ok {
			gi = len(groups)
			groupIdx[op.Iter] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], op)
	}
	for _, g := range groups {
		s.MarkIteration(g[0].Iter, g)
	}
}

// MarkIteration applies §2.2.2 step 1 to ops, the accesses of
// (super-)iteration iter in program order; the ops' own Iter fields are
// not read. Iterations commute: each ORs into the bit shadows, lowers
// MinW, raises MaxR1st and adds to Atw, so marking them in any order
// leaves the same shadows, and a caller may mark each iteration as soon
// as its accesses are known.
func (s *Shadows) MarkIteration(iter int, ops []Op) {
	if len(ops) == 0 {
		return
	}
	m := s.scratch()
	stamp := m.nextStamp()
	it := int32(iter)
	// wIter: elements written anywhere in this iteration (needed for the
	// "neither before nor after" read condition).
	written := 0
	for _, op := range ops {
		if op.Write && m.wIter[op.Elem] != stamp {
			m.wIter[op.Elem] = stamp
			written++
		}
	}
	for _, op := range ops {
		e := op.Elem
		if op.Write {
			s.Aw.Set(e)
			m.wSoFar[e] = stamp
			if s.MinW[e] == 0 || it+1 < s.MinW[e] {
				s.MinW[e] = it + 1
			}
			continue
		}
		// Read.
		if m.wIter[e] != stamp {
			s.Ar.Set(e)
		}
		if m.wSoFar[e] != stamp {
			s.Anp.Set(e)
			if m.rFirst[e] != stamp {
				m.rFirst[e] = stamp
				if it+1 > s.MaxR1st[e] {
					s.MaxR1st[e] = it + 1
				}
			}
		}
	}
	s.Atw += written
}

// Result is the outcome of the analysis phase.
type Result struct {
	Verdict Verdict
	// Atm is the number of distinct elements written (analysis step a).
	Atm int
	// Atw is copied from the shadows for reporting.
	Atw int
	// FailedElem is the first element that failed a test, or -1.
	FailedElem int
}

// Analyze runs the analysis phase of §2.2.2 (steps a-e) on merged
// shadows. privatized selects whether the array was speculatively
// privatized (enabling steps d-e).
func Analyze(s *Shadows, privatized bool) Result {
	res := Result{Atw: s.Atw, FailedElem: -1}
	res.Atm = s.Aw.Count()
	// (b) any(Aw && Ar): an element written in one iteration and read
	// (without writing) in another — flow or anti dependence. A word-wise
	// AND scan over the bit shadows.
	if i := firstAnd(s.Aw, s.Ar); i >= 0 {
		res.FailedElem = i
		if !privatized {
			res.Verdict = NotParallel
			return res
		}
	}
	if res.FailedElem == -1 && res.Atw == res.Atm {
		// (c) no two iterations wrote the same element: doall without
		// privatization.
		res.Verdict = DoallNoPriv
		return res
	}
	if !privatized {
		// Writes collided (Atw != Atm) and we may not privatize.
		if res.FailedElem == -1 {
			res.FailedElem = firstCollision(s)
		}
		res.Verdict = NotParallel
		return res
	}
	// (d) any(Aw && Anp): an element read before being written and also
	// written — not privatizable.
	if i := firstAnd(s.Aw, s.Anp); i >= 0 {
		res.FailedElem = i
		res.Verdict = NotParallel
		return res
	}
	// (e) privatization made the loop a doall.
	res.FailedElem = -1
	res.Verdict = DoallWithPriv
	return res
}

// firstCollision finds an element written by more than one iteration; it
// exists whenever Atw != Atm. Used only for failure reporting, so a
// linear rescan is fine.
func firstCollision(s *Shadows) int {
	// Atw counts per-iteration distinct writes; if it exceeds Atm some
	// element was written in two iterations, but the bit shadows alone
	// cannot identify it. Report the first written element.
	return s.Aw.First()
}

// AnalyzeWithReadIn runs the extended analysis of §2.2.3: a loop is still
// parallel (with privatization, read-in and copy-out) if every read-first
// access in iteration i has no write in any earlier iteration:
// MaxR1st(e) <= MinW(e) for every element e. Output dependences (multiple
// writers) are resolved by copy-out in iteration order.
func AnalyzeWithReadIn(s *Shadows) Result {
	res := Analyze(s, true)
	if res.Verdict != NotParallel {
		return res
	}
	for i := range s.MaxR1st {
		if s.MaxR1st[i] != 0 && s.MinW[i] != 0 && s.MaxR1st[i] > s.MinW[i] {
			return Result{Verdict: NotParallel, Atm: res.Atm, Atw: res.Atw, FailedElem: i}
		}
	}
	return Result{Verdict: DoallWithPriv, Atm: res.Atm, Atw: res.Atw, FailedElem: -1}
}

// Test runs marking and analysis over a full trace for an array of elems
// elements. It is the iteration-wise test; for the processor-wise variant
// (§2.2.3) give each op its processor's chunk as Iter, so that each chunk
// is marked as one super-iteration.
func Test(elems int, ops []Op, privatized bool) Result {
	s := NewShadows(elems)
	s.Mark(ops)
	return Analyze(s, privatized)
}

// TestWithReadIn is Test with the §2.2.3 read-in extension.
func TestWithReadIn(elems int, ops []Op) Result {
	s := NewShadows(elems)
	s.Mark(ops)
	return AnalyzeWithReadIn(s)
}

// Oracle decides ground truth by simulating the loop serially: the loop
// is a doall (with privatization and read-in/copy-out) iff every read
// that is not preceded by a same-iteration write reads a value no earlier
// iteration wrote. It is used by property tests to validate the shadow
// algorithms. Returns the strongest verdict the access pattern admits.
func Oracle(elems int, ops []Op) Verdict {
	// Strongest-to-weakest: doall, doall-with-priv, not-parallel.
	writersPerElem := make(map[int]map[int]bool) // elem -> set of iters that write
	readNoWriteIter := make(map[int]map[int]bool)
	firstWrite := make(map[int]int) // elem -> earliest writing iteration
	type key struct{ iter, elem int }
	writtenBefore := make(map[key]bool)
	flow := false
	for i := 0; i < len(ops); {
		j := i
		iter := ops[i].Iter
		inIterWritten := map[int]bool{}
		for j < len(ops) && ops[j].Iter == iter {
			op := ops[j]
			if op.Write {
				inIterWritten[op.Elem] = true
				if w := writersPerElem[op.Elem]; w == nil {
					writersPerElem[op.Elem] = map[int]bool{iter: true}
				} else {
					w[iter] = true
				}
				if fw, ok := firstWrite[op.Elem]; !ok || iter < fw {
					firstWrite[op.Elem] = iter
				}
				writtenBefore[key{iter, op.Elem}] = true
			} else {
				if !writtenBefore[key{iter, op.Elem}] {
					// Read-first in this iteration: flow dependence iff
					// some earlier iteration writes the element.
					if fw, ok := firstWrite[op.Elem]; ok && fw < iter {
						flow = true
					}
					if m := readNoWriteIter[op.Elem]; m == nil {
						readNoWriteIter[op.Elem] = map[int]bool{iter: true}
					} else {
						m[iter] = true
					}
				}
			}
			j++
		}
		// Reads after writes in the same iteration are fine.
		i = j
	}
	// Note: ops must arrive with iterations in increasing order for
	// firstWrite comparisons to be exact; callers generating traces
	// serially satisfy this.
	if flow {
		return NotParallel
	}
	// doall without privatization: every element written by at most one
	// iteration and never both written and read-without-write across
	// iterations.
	doall := true
	for e, ws := range writersPerElem {
		if len(ws) > 1 {
			doall = false
			break
		}
		for riter := range readNoWriteIter[e] {
			var witer int
			for w := range ws {
				witer = w
			}
			if riter != witer {
				doall = false
			}
		}
		if !doall {
			break
		}
	}
	if doall {
		return DoallNoPriv
	}
	return DoallWithPriv
}
