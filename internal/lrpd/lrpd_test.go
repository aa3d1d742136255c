package lrpd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFigure2 reproduces the paper's Figure 2 worked example: a 5-iteration
// loop over a 4-element array where iteration i reads A(K(i)) and, when
// B1(i) holds, writes A(L(i)). The shadow arrays come out as
// Aw = [0 1 0 1], Ar = [1 1 1 1], Anp = [1 1 1 1], Atw = 3, Atm = 2, and
// the test fails.
func TestFigure2(t *testing.T) {
	// 1-based values from the figure, 0-based in the trace.
	K := []int{1, 2, 3, 4, 1}
	L := []int{2, 0, 4, 0, 2} // writes happen in iterations 1, 3, 5
	B1 := []bool{true, false, true, false, true}
	var ops []Op
	for i := 0; i < 5; i++ {
		ops = append(ops, Op{Iter: i, Elem: K[i] - 1})
		if B1[i] {
			ops = append(ops, Op{Iter: i, Elem: L[i] - 1, Write: true})
		}
	}
	s := NewShadows(4)
	s.Mark(ops)

	wantAw := []bool{false, true, false, true}
	wantAr := []bool{true, true, true, true}
	for i := 0; i < 4; i++ {
		if s.Aw.Get(i) != wantAw[i] {
			t.Fatalf("Aw[%d] = %t, want %t", i, s.Aw.Get(i), wantAw[i])
		}
		if s.Ar.Get(i) != wantAr[i] {
			t.Fatalf("Ar[%d] = %t, want %t", i, s.Ar.Get(i), wantAr[i])
		}
		if !s.Anp.Get(i) {
			t.Fatalf("Anp[%d] = false, want true", i)
		}
	}
	if s.Atw != 3 {
		t.Fatalf("Atw = %d, want 3", s.Atw)
	}
	res := Analyze(s, true)
	if res.Atm != 2 {
		t.Fatalf("Atm = %d, want 2", res.Atm)
	}
	if res.Verdict != NotParallel {
		t.Fatalf("verdict = %v, want not-parallel", res.Verdict)
	}
}

func TestDoallNoPrivDetected(t *testing.T) {
	// Each iteration writes its own element: fully parallel.
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Iter: i, Elem: i, Write: true})
		ops = append(ops, Op{Iter: i, Elem: i})
	}
	if res := Test(10, ops, false); res.Verdict != DoallNoPriv {
		t.Fatalf("verdict = %v, want doall", res.Verdict)
	}
}

func TestReadOnlyIsDoall(t *testing.T) {
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Iter: i, Elem: 3})
	}
	if res := Test(8, ops, false); res.Verdict != DoallNoPriv {
		t.Fatalf("read-only verdict = %v", res.Verdict)
	}
}

func TestPrivatizableTemporary(t *testing.T) {
	// Every iteration writes then reads element 0 (a temporary): needs
	// privatization.
	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Iter: i, Elem: 0, Write: true})
		ops = append(ops, Op{Iter: i, Elem: 0})
	}
	if res := Test(4, ops, false); res.Verdict != NotParallel {
		t.Fatalf("without privatization verdict = %v", res.Verdict)
	}
	if res := Test(4, ops, true); res.Verdict != DoallWithPriv {
		t.Fatalf("with privatization verdict = %v", res.Verdict)
	}
}

func TestFlowDependenceFailsEvenPrivatized(t *testing.T) {
	// Iteration 0 writes, iteration 1 reads (no same-iteration write):
	// flow dependence.
	ops := []Op{
		{Iter: 0, Elem: 2, Write: true},
		{Iter: 1, Elem: 2},
	}
	if res := Test(4, ops, true); res.Verdict != NotParallel {
		t.Fatalf("verdict = %v, want not-parallel", res.Verdict)
	}
	if res := TestWithReadIn(4, ops); res.Verdict != NotParallel {
		t.Fatalf("read-in verdict = %v, want not-parallel", res.Verdict)
	}
}

func TestReadInExtensionAllowsEarlyReads(t *testing.T) {
	// Iteration 0 reads element 2; iteration 5 writes it. The plain
	// privatizing test fails (Aw && Anp), but the read-in extension
	// (§2.2.3) passes: the read observes the pre-loop value, as serial
	// execution would.
	ops := []Op{
		{Iter: 0, Elem: 2},
		{Iter: 5, Elem: 2, Write: true},
	}
	if res := Test(4, ops, true); res.Verdict != NotParallel {
		t.Fatalf("plain priv verdict = %v, want not-parallel", res.Verdict)
	}
	if res := TestWithReadIn(4, ops); res.Verdict != DoallWithPriv {
		t.Fatalf("read-in verdict = %v, want doall-with-priv", res.Verdict)
	}
}

func TestOutputDependencePrivatizable(t *testing.T) {
	// Two iterations write the same element, no cross-iteration reads:
	// output dependence, removable with privatization + copy-out.
	ops := []Op{
		{Iter: 0, Elem: 1, Write: true},
		{Iter: 3, Elem: 1, Write: true},
	}
	if res := Test(4, ops, false); res.Verdict != NotParallel {
		t.Fatalf("no-priv verdict = %v", res.Verdict)
	}
	if res := Test(4, ops, true); res.Verdict != DoallWithPriv {
		t.Fatalf("priv verdict = %v", res.Verdict)
	}
}

func TestProcessorWiseHidesIntraChunkDependences(t *testing.T) {
	// Flow dependence between iterations 0 and 1; both land on
	// processor 0 under 2-processor chunking of 4 iterations, so the
	// processor-wise test passes while the iteration-wise fails.
	ops := []Op{
		{Iter: 0, Elem: 5, Write: true},
		{Iter: 1, Elem: 5},
		{Iter: 2, Elem: 6, Write: true},
		{Iter: 3, Elem: 7},
	}
	if res := TestWithReadIn(8, ops); res.Verdict != NotParallel {
		t.Fatalf("iteration-wise verdict = %v", res.Verdict)
	}
	pw := markByChunk(8, ops, func(iter int) int { return iter / 2 })
	if res := AnalyzeWithReadIn(pw); res.Verdict == NotParallel {
		t.Fatalf("processor-wise verdict = %v, want parallel", res.Verdict)
	}
}

// markByChunk runs the processor-wise marking phase (§2.2.3) on ops:
// each chunk's accesses, in trace order, are marked with MarkIteration as
// one super-iteration numbered chunkOf(iter).
func markByChunk(elems int, ops []Op, chunkOf func(iter int) int) *Shadows {
	var chunks [][]Op
	for _, op := range ops {
		c := chunkOf(op.Iter)
		for len(chunks) <= c {
			chunks = append(chunks, nil)
		}
		chunks[c] = append(chunks[c], op)
	}
	s := NewShadows(elems)
	for c, g := range chunks {
		s.MarkIteration(c, g)
	}
	return s
}

func TestMergeShadows(t *testing.T) {
	a := NewShadows(4)
	b := NewShadows(4)
	a.Mark([]Op{{Iter: 0, Elem: 0, Write: true}})
	b.Mark([]Op{{Iter: 1, Elem: 0, Write: true}, {Iter: 1, Elem: 2}})
	a.Merge(b)
	if !a.Aw.Get(0) || !a.Ar.Get(2) || a.Atw != 2 {
		t.Fatalf("merged shadows wrong: Aw0=%t Ar2=%t Atw=%d", a.Aw.Get(0), a.Ar.Get(2), a.Atw)
	}
	if a.MinW[0] != 1 {
		t.Fatalf("merged MinW[0] = %d, want 1", a.MinW[0])
	}
	if a.MaxR1st[2] != 2 {
		t.Fatalf("merged MaxR1st[2] = %d, want 2", a.MaxR1st[2])
	}
}

func TestAnalyzeAtwAtm(t *testing.T) {
	// Same element written in two iterations: Atw=2, Atm=1.
	ops := []Op{
		{Iter: 0, Elem: 0, Write: true},
		{Iter: 1, Elem: 0, Write: true},
	}
	s := NewShadows(2)
	s.Mark(ops)
	res := Analyze(s, true)
	if res.Atw != 2 || res.Atm != 1 {
		t.Fatalf("Atw/Atm = %d/%d, want 2/1", res.Atw, res.Atm)
	}
}

func TestVerdictString(t *testing.T) {
	if NotParallel.String() != "not-parallel" ||
		DoallNoPriv.String() != "doall" ||
		DoallWithPriv.String() != "doall-with-privatization" {
		t.Fatal("Verdict strings wrong")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict should stringify")
	}
}

// randomTrace builds a serial-order random trace.
func randomTrace(rng *rand.Rand, iters, elems, opsPerIter int) []Op {
	var ops []Op
	for i := 0; i < iters; i++ {
		for k := 0; k < opsPerIter; k++ {
			ops = append(ops, Op{
				Iter:  i,
				Elem:  rng.Intn(elems),
				Write: rng.Intn(2) == 0,
			})
		}
	}
	return ops
}

// Property: the read-in extended test agrees with the serial-execution
// oracle on parallel vs not-parallel.
func TestPropertyReadInMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomTrace(rng, 1+rng.Intn(8), 1+rng.Intn(6), 1+rng.Intn(4))
		want := Oracle(8, ops) != NotParallel
		got := TestWithReadIn(8, ops).Verdict != NotParallel
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: verdicts are monotone — doall implies doall-with-priv implies
// read-in-parallel.
func TestPropertyVerdictMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomTrace(rng, 1+rng.Intn(8), 1+rng.Intn(6), 1+rng.Intn(4))
		noPriv := Test(8, ops, false).Verdict
		priv := Test(8, ops, true).Verdict
		readIn := TestWithReadIn(8, ops).Verdict
		if noPriv == DoallNoPriv && priv == NotParallel {
			return false
		}
		if priv != NotParallel && readIn == NotParallel {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the processor-wise test passes whenever the iteration-wise
// test passes (chunking can only hide dependences).
func TestPropertyProcessorWiseWeaker(t *testing.T) {
	f := func(seed int64, procsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		iters := 1 + rng.Intn(12)
		procs := 1 + int(procsRaw%4)
		ops := randomTrace(rng, iters, 6, 3)
		iw := TestWithReadIn(6, ops).Verdict
		chunk := (iters + procs - 1) / procs
		pw := AnalyzeWithReadIn(markByChunk(6, ops, func(i int) int { return i / chunk }))
		if iw != NotParallel && pw.Verdict == NotParallel {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
