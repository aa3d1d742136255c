package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specrt/internal/lrpd"
)

// Oracle-equivalence property tests: the hardware protocols must agree
// with the software LRPD test on random access patterns.
//
// Non-privatization (§3.2): the protocol passes a loop iff every element
// is read-only or accessed by a single processor — which is exactly the
// processor-wise LRPD test without privatization. The protocol is
// processor-wise under any scheduling, so we generate per-processor
// access sequences directly.
//
// Privatization (§3.3, with read-in/copy-out): the protocol fails iff
// some element has a read-first iteration later than a writing iteration
// (MaxR1st > MinW) — exactly the §2.2.3 extended software test.

// accessStep is one randomized access.
type accessStep struct {
	proc  int
	iter  int // global iteration (1-based for the hardware)
	elem  int
	write bool
}

// genNPProgram builds a random non-privatization test program: each
// processor gets a sequence of accesses; iteration numbers are unused by
// the protocol but each processor's must be non-decreasing.
func genNPProgram(rng *rand.Rand, procs, elems, steps int) []accessStep {
	var out []accessStep
	for i := 0; i < steps; i++ {
		out = append(out, accessStep{
			proc:  rng.Intn(procs),
			elem:  rng.Intn(elems),
			write: rng.Intn(3) == 0,
		})
	}
	return out
}

// runNP drives the non-privatization protocol over the program and
// reports whether the hardware failed.
func runNP(t *testing.T, procs, elems int, prog []accessStep) bool {
	t.Helper()
	e := newEnv(t, procs)
	r := e.alloc("A", elems, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	for _, st := range prog {
		if st.write {
			e.c.Write(st.proc, r.ElemAddr(st.elem)) //nolint:errcheck
		} else {
			e.c.Read(st.proc, r.ElemAddr(st.elem)) //nolint:errcheck
		}
		if e.failed() != nil {
			return true
		}
	}
	e.settle()
	// Final writeback: dirty tags merge into the directory with
	// conflict checks (the loop-end flush of the HW scheme).
	e.m.FlushCaches()
	return e.failed() != nil
}

// npOracle: the processor-wise LRPD test without privatization, treating
// each processor as one super-iteration.
func npOracle(elems int, prog []accessStep) bool {
	ops := make([]lrpd.Op, len(prog))
	for i, st := range prog {
		ops[i] = lrpd.Op{Iter: st.proc, Elem: st.elem, Write: st.write}
	}
	return lrpd.Test(elems, ops, false).Verdict == lrpd.NotParallel
}

func TestPropertyNonPrivMatchesProcessorWiseLRPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(3)
		elems := 1 + rng.Intn(24)
		steps := 1 + rng.Intn(40)
		prog := genNPProgram(rng, procs, elems, steps)
		hwFail := runNP(t, procs, elems, prog)
		swFail := npOracle(elems, prog)
		if hwFail != swFail {
			t.Logf("seed=%d procs=%d elems=%d prog=%v hw=%t sw=%t",
				seed, procs, elems, prog, hwFail, swFail)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// genPrivProgram builds a random privatization test program: iterations
// are dealt round-robin to processors in increasing global order, and
// each iteration performs a few accesses.
func genPrivProgram(rng *rand.Rand, procs, elems, iters int) []accessStep {
	var out []accessStep
	for it := 1; it <= iters; it++ {
		p := (it - 1) % procs
		n := 1 + rng.Intn(3)
		for k := 0; k < n; k++ {
			out = append(out, accessStep{
				proc:  p,
				iter:  it,
				elem:  rng.Intn(elems),
				write: rng.Intn(2) == 0,
			})
		}
	}
	return out
}

// runPriv drives the privatization protocol (with read-in/copy-out) and
// reports whether the hardware failed. Iterations execute in a random
// interleaving that preserves each processor's program order.
func runPriv(t *testing.T, rng *rand.Rand, procs, elems int, prog []accessStep) bool {
	t.Helper()
	e := newEnv(t, procs)
	r := e.alloc("A", elems, 4)
	e.c.AddPriv(r, PrivCopies(e.m.Space, r, procs), true)
	e.c.Arm()

	// Split per processor, then interleave randomly.
	perProc := make([][]accessStep, procs)
	for _, st := range prog {
		perProc[st.proc] = append(perProc[st.proc], st)
	}
	idx := make([]int, procs)
	curIter := make([]int, procs)
	for {
		// Pick a processor with work left.
		var avail []int
		for p := 0; p < procs; p++ {
			if idx[p] < len(perProc[p]) {
				avail = append(avail, p)
			}
		}
		if len(avail) == 0 {
			break
		}
		p := avail[rng.Intn(len(avail))]
		st := perProc[p][idx[p]]
		idx[p]++
		if curIter[p] != st.iter {
			curIter[p] = st.iter
			e.c.BeginIteration(p, st.iter)
		}
		if st.write {
			e.c.Write(p, r.ElemAddr(st.elem)) //nolint:errcheck
		} else {
			e.c.Read(p, r.ElemAddr(st.elem)) //nolint:errcheck
		}
		if e.failed() != nil {
			return true
		}
	}
	e.settle()
	e.m.FlushCaches()
	return e.failed() != nil
}

// privOracle: the extended software test (§2.2.3) on the iteration-wise
// trace (0-based iterations for lrpd).
func privOracle(elems int, prog []accessStep) bool {
	ops := make([]lrpd.Op, len(prog))
	for i, st := range prog {
		ops[i] = lrpd.Op{Iter: st.iter - 1, Elem: st.elem, Write: st.write}
	}
	return lrpd.TestWithReadIn(elems, ops).Verdict == lrpd.NotParallel
}

func TestPropertyPrivMatchesReadInLRPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(3)
		elems := 1 + rng.Intn(16)
		iters := 1 + rng.Intn(20)
		prog := genPrivProgram(rng, procs, elems, iters)
		hwFail := runPriv(t, rng, procs, elems, prog)
		swFail := privOracle(elems, prog)
		if hwFail != swFail {
			t.Logf("seed=%d procs=%d elems=%d iters=%d prog=%v hw=%t sw=%t",
				seed, procs, elems, iters, prog, hwFail, swFail)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
