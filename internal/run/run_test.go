package run

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/lrpd"
	"specrt/internal/mem"
	"specrt/internal/policy"
	"specrt/internal/sched"
)

// indepLoop builds a fully parallel workload: iteration i writes then
// reads element i of the array under test, plus some compute.
func indepLoop(test core.Protocol, iters, elems int, compute int64) *Workload {
	return &Workload{
		Name:       "indep",
		Executions: 1,
		Iterations: func(int) int { return iters },
		Arrays: []ArraySpec{
			{Name: "A", Elems: elems, ElemSize: 4, Test: test, RICO: true},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Store(0, iter%elems)
			c.Compute(compute)
			c.Load(0, iter%elems)
		},
	}
}

// depLoop has a flow dependence: iteration 1 reads what iteration 0
// wrote.
func depLoop(test core.Protocol, iters int) *Workload {
	return &Workload{
		Name:       "dep",
		Executions: 1,
		Iterations: func(int) int { return iters },
		Arrays: []ArraySpec{
			{Name: "A", Elems: 64, ElemSize: 4, Test: test, RICO: true},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(50)
			if iter == 0 {
				c.Store(0, 7)
			}
			if iter == 1 {
				c.Load(0, 7)
			}
			c.Store(0, 8+iter%32)
		},
	}
}

func cfgFor(mode Mode, procs int) Config {
	return Config{Procs: procs, Mode: mode, Contention: true}
}

func TestSerialExecution(t *testing.T) {
	w := indepLoop(core.NonPriv, 64, 64, 100)
	r := MustExecute(w, cfgFor(Serial, 8))
	if r.Cycles <= 0 {
		t.Fatal("serial run took no time")
	}
	if r.Breakdown.Sync != 0 {
		t.Fatalf("serial run has Sync time: %+v", r.Breakdown)
	}
	if r.Failures != 0 {
		t.Fatal("serial run cannot fail")
	}
}

func TestIdealSpeedup(t *testing.T) {
	w := indepLoop(core.NonPriv, 128, 128, 500)
	serial := MustExecute(w, cfgFor(Serial, 1))
	par := MustExecute(w, cfgFor(Ideal, 4))
	sp := Speedup(serial, par)
	if sp < 1.5 {
		t.Fatalf("ideal speedup = %.2f, want > 1.5", sp)
	}
}

func TestHWParallelPasses(t *testing.T) {
	w := indepLoop(core.NonPriv, 128, 128, 200)
	r := MustExecute(w, cfgFor(HW, 4))
	if r.Failures != 0 {
		t.Fatalf("HW failed a parallel loop: %+v", r)
	}
}

func TestHWSlowerThanIdealFasterThanSerial(t *testing.T) {
	w := indepLoop(core.NonPriv, 256, 256, 300)
	serial := MustExecute(w, cfgFor(Serial, 1))
	ideal := MustExecute(w, cfgFor(Ideal, 8))
	hw := MustExecute(w, cfgFor(HW, 8))
	if hw.Cycles < ideal.Cycles {
		t.Fatalf("HW (%d) faster than Ideal (%d)", hw.Cycles, ideal.Cycles)
	}
	if hw.Cycles >= serial.Cycles {
		t.Fatalf("HW (%d) not faster than Serial (%d)", hw.Cycles, serial.Cycles)
	}
}

func TestSWParallelPassesAndIsSlowerThanHW(t *testing.T) {
	w := indepLoop(core.NonPriv, 256, 256, 300)
	sw := MustExecute(w, cfgFor(SW, 8))
	hw := MustExecute(w, cfgFor(HW, 8))
	if sw.Failures != 0 {
		t.Fatalf("SW failed a parallel loop: %+v", sw.Verdicts)
	}
	if v := sw.Verdicts["A"]; v == lrpd.NotParallel {
		t.Fatalf("verdict = %v", v)
	}
	if sw.Cycles <= hw.Cycles {
		t.Fatalf("SW (%d) not slower than HW (%d): instrumentation overhead missing",
			sw.Cycles, hw.Cycles)
	}
}

// midRunCollision has every processor in a long stretch of compute and
// per-iteration cache hits when iteration 20's store collides with the
// element every iteration reads, so the failure lands mid-stretch on
// the other processors.
func midRunCollision() *Workload {
	return &Workload{
		Name:       "mid-run-collision",
		Executions: 2,
		Iterations: func(int) int { return 32 },
		Arrays: []ArraySpec{
			{Name: "W", Elems: 256, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(_, iter int, c *Ctx) {
			for k := 0; k < 8; k++ {
				c.Compute(40)
				c.Load(0, 8+iter)
			}
			if iter == 20 {
				// A write to data other processors have read (§3.2).
				c.Store(0, 0)
			}
			c.Load(0, 0)
		},
	}
}

func TestHWDetectsDependence(t *testing.T) {
	w := depLoop(core.NonPriv, 64)
	r := MustExecute(w, cfgFor(HW, 4))
	if r.Failures != 1 {
		t.Fatalf("HW missed the dependence: %+v", r)
	}
	if r.FirstFailure == nil {
		t.Fatal("no first failure recorded")
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles accounted")
	}
}

// TestFastPathAbortMidBatch aborts speculation while every other
// processor is in the middle of a long stretch of compute and cache
// hits (midRunCollision). Both executions must fail on element 0 of W,
// and a second run of the same workload must report the same Result
// down to the cycle.
func TestFastPathAbortMidBatch(t *testing.T) {
	r := MustExecute(midRunCollision(), cfgFor(HW, 4))
	if r.Failures != 2 {
		t.Fatalf("%d failures, want 2 (both executions): %+v", r.Failures, r)
	}
	f := r.FirstFailure
	if f == nil {
		t.Fatal("no first failure recorded")
	}
	if f.Array != "W" || f.Elem != 0 {
		t.Fatalf("first failure on %s[%d], want W[0]: %v", f.Array, f.Elem, f)
	}
	if f.At <= 0 || f.At >= r.Cycles {
		t.Fatalf("first failure at cycle %d, outside the run's %d cycles", f.At, r.Cycles)
	}
	if again := MustExecute(midRunCollision(), cfgFor(HW, 4)); !reflect.DeepEqual(r, again) {
		t.Fatalf("two runs differ\nfirst:  %+v\nsecond: %+v", r, again)
	}
}

func TestSWDetectsDependenceAfterLoop(t *testing.T) {
	w := depLoop(core.NonPriv, 64)
	r := MustExecute(w, cfgFor(SW, 4))
	if r.Failures != 1 {
		t.Fatalf("SW missed the dependence: verdicts=%v", r.Verdicts)
	}
	if r.Verdicts["A"] != lrpd.NotParallel {
		t.Fatalf("verdict = %v", r.Verdicts["A"])
	}
}

func TestHWDetectsEarlierThanSW(t *testing.T) {
	// The dependence occurs in the first iterations; HW aborts there
	// while SW must finish the whole loop first.
	mk := func() *Workload {
		w := depLoop(core.NonPriv, 512)
		w.Body = func(exec, iter int, c *Ctx) {
			c.Compute(200)
			if iter == 0 {
				c.Store(0, 7)
			}
			if iter == 1 {
				c.Load(0, 7)
			}
			c.Store(0, 8+iter%32)
		}
		return w
	}
	hw := MustExecute(mk(), cfgFor(HW, 4))
	sw := MustExecute(mk(), cfgFor(SW, 4))
	if hw.Failures != 1 || sw.Failures != 1 {
		t.Fatalf("failures hw=%d sw=%d", hw.Failures, sw.Failures)
	}
	if hw.FailDetectCycles >= sw.FailDetectCycles {
		t.Fatalf("HW detect (%d) not earlier than SW detect (%d)",
			hw.FailDetectCycles, sw.FailDetectCycles)
	}
}

func TestFailedRunStillSlowerThanSerialButBounded(t *testing.T) {
	w := depLoop(core.NonPriv, 128)
	serial := MustExecute(w, cfgFor(Serial, 1))
	hw := MustExecute(w, cfgFor(HW, 4))
	if hw.Cycles <= serial.Cycles {
		t.Fatalf("failed HW (%d) should exceed Serial (%d): it includes re-execution",
			hw.Cycles, serial.Cycles)
	}
	// But it must not cost more than a few times serial.
	if hw.Cycles > serial.Cycles*4 {
		t.Fatalf("failed HW (%d) unreasonably slower than Serial (%d)", hw.Cycles, serial.Cycles)
	}
}

func TestPrivWorkloadHW(t *testing.T) {
	// Privatizable temporary: every iteration writes then reads element
	// 0. NonPriv would fail; Priv passes.
	w := &Workload{
		Name:       "tmp",
		Executions: 1,
		Iterations: func(int) int { return 64 },
		Arrays: []ArraySpec{
			{Name: "T", Elems: 16, ElemSize: 4, Test: core.Priv, RICO: true},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Store(0, 0)
			c.Compute(100)
			c.Load(0, 0)
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
	}
	r := MustExecute(w, cfgFor(HW, 4))
	if r.Failures != 0 {
		t.Fatalf("privatizable loop failed under HW: %+v", r)
	}
}

func TestPrivWorkloadSW(t *testing.T) {
	w := &Workload{
		Name:       "tmp",
		Executions: 1,
		Iterations: func(int) int { return 64 },
		Arrays: []ArraySpec{
			{Name: "T", Elems: 16, ElemSize: 4, Test: core.Priv, RICO: true},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Store(0, 0)
			c.Compute(100)
			c.Load(0, 0)
		},
	}
	r := MustExecute(w, cfgFor(SW, 4))
	if r.Failures != 0 {
		t.Fatalf("privatizable loop failed under SW: %v", r.Verdicts)
	}
	if r.Verdicts["T"] != lrpd.DoallWithPriv {
		t.Fatalf("verdict = %v", r.Verdicts["T"])
	}
}

func TestDynamicSchedulingBalancesLoad(t *testing.T) {
	// Imbalanced iterations: static scheduling leaves half the procs
	// with the heavy tail; dynamic in chunks of 1 balances.
	mk := func(k sched.Kind) *Workload {
		return &Workload{
			Name:       "imbal",
			Executions: 1,
			Iterations: func(int) int { return 64 },
			Arrays: []ArraySpec{
				{Name: "A", Elems: 64, ElemSize: 4, Test: core.Plain},
			},
			Body: func(exec, iter int, c *Ctx) {
				// Iterations in the last chunk are 20x heavier.
				if iter >= 48 {
					c.Compute(2000)
				} else {
					c.Compute(100)
				}
				c.Store(0, iter)
			},
			IdealSched: sched.Config{Kind: k, Chunk: 1},
		}
	}
	static := MustExecute(mk(sched.Static), cfgFor(Ideal, 4))
	dynamic := MustExecute(mk(sched.Dynamic), cfgFor(Ideal, 4))
	if dynamic.Cycles >= static.Cycles {
		t.Fatalf("dynamic (%d) not faster than static (%d) on imbalanced load",
			dynamic.Cycles, static.Cycles)
	}
}

func TestProcessorWiseSWPassesWhereIterationWiseFails(t *testing.T) {
	// Dependent iterations land on the same processor under static
	// chunking: iteration-wise fails, processor-wise passes (§5.2
	// Track).
	mk := func(procWise bool) *Workload {
		return &Workload{
			Name:       "pw",
			Executions: 1,
			Iterations: func(int) int { return 64 },
			Arrays: []ArraySpec{
				{Name: "A", Elems: 64, ElemSize: 4, Test: core.NonPriv},
			},
			Body: func(exec, iter int, c *Ctx) {
				c.Compute(50)
				// Iterations 2k and 2k+1 share element k: adjacent, so
				// they stay in one static chunk (64 iters / 4 procs =
				// chunks of 16).
				if iter%2 == 0 {
					c.Store(0, iter/2)
				} else {
					c.Load(0, iter/2)
				}
			},
			SWProcWise: procWise,
		}
	}
	iw := MustExecute(mk(false), cfgFor(SW, 4))
	pw := MustExecute(mk(true), cfgFor(SW, 4))
	if iw.Failures != 1 {
		t.Fatalf("iteration-wise should fail: %v", iw.Verdicts)
	}
	if pw.Failures != 0 {
		t.Fatalf("processor-wise should pass: %v", pw.Verdicts)
	}
}

// The SW scheme marks the LRPD shadows as the loop is generated and
// keeps no access trace. After each execution an iteration-wise session
// holds no unmarked access and room for about one iteration's; a
// processor-wise session holds the last execution's accesses and no
// earlier ones, one buffer per processor.
func TestSWMarkingRetainsNoTrace(t *testing.T) {
	const procs, iters, execs, perIter = 4, 256, 3, 2
	for _, procWise := range []bool{false, true} {
		w := indepLoop(core.Priv, iters, 64, 10)
		w.Executions, w.SWProcWise = execs, procWise
		s := newSession(w, cfgFor(SW, procs))
		res := &Result{Verdicts: map[string]lrpd.Verdict{}}
		for exec := 0; exec < execs; exec++ {
			s.runOne(exec, res)
			held, room := 0, 0
			for _, buf := range s.swOps[0] {
				held, room = held+len(buf), room+cap(buf)
			}
			switch {
			case !procWise && (len(s.swOps[0]) != 1 || held != 0 || room > 2*perIter):
				t.Fatalf("iteration-wise, execution %d: %d buffers hold %d accesses with room for %d, want one empty buffer with room for at most %d",
					exec, len(s.swOps[0]), held, room, 2*perIter)
			case procWise && (len(s.swOps[0]) != procs || held != iters*perIter || room > 2*held):
				t.Fatalf("processor-wise, execution %d: %d buffers hold %d accesses with room for %d, want %d buffers holding %d",
					exec, len(s.swOps[0]), held, room, procs, iters*perIter)
			}
		}
		s.m.Release()
	}
}

func TestHWProcessorWiseUnderAnyScheduling(t *testing.T) {
	// The same pattern passes under HW with dynamic blocks that keep
	// the dependent pair together (§5.2: "the plain dynamically-
	// scheduled hardware scheme passes all loops if the iterations are
	// scheduled in blocks of a few iterations each").
	w := &Workload{
		Name:       "pw-hw",
		Executions: 1,
		Iterations: func(int) int { return 64 },
		Arrays: []ArraySpec{
			{Name: "A", Elems: 64, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(50)
			if iter%2 == 0 {
				c.Store(0, iter/2)
			} else {
				c.Load(0, iter/2)
			}
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 4},
	}
	r := MustExecute(w, cfgFor(HW, 4))
	if r.Failures != 0 {
		t.Fatalf("HW with blocked dynamic scheduling failed: %+v", r)
	}
}

func TestMultipleExecutionsAccumulate(t *testing.T) {
	w := indepLoop(core.NonPriv, 32, 32, 100)
	w.Executions = 5
	r := MustExecute(w, cfgFor(HW, 2))
	if r.Executions != 5 {
		t.Fatalf("executions = %d", r.Executions)
	}
	one := indepLoop(core.NonPriv, 32, 32, 100)
	r1 := MustExecute(one, cfgFor(HW, 2))
	if r.Cycles < 4*r1.Cycles {
		t.Fatalf("5 executions (%d) should cost ~5x one (%d)", r.Cycles, r1.Cycles)
	}
}

func TestMaxExecutionsCap(t *testing.T) {
	w := indepLoop(core.NonPriv, 32, 32, 100)
	w.Executions = 100
	cfg := cfgFor(HW, 2)
	cfg.MaxExecutions = 3
	r := MustExecute(w, cfg)
	if r.Executions != 3 {
		t.Fatalf("executions = %d, want 3", r.Executions)
	}
}

func TestValidation(t *testing.T) {
	good := indepLoop(core.NonPriv, 8, 8, 1)
	bad := []*Workload{
		{Name: "noexec", Iterations: good.Iterations, Body: good.Body, Arrays: good.Arrays},
		{Name: "nobody", Executions: 1, Iterations: good.Iterations, Arrays: good.Arrays},
		{Name: "noarrays", Executions: 1, Iterations: good.Iterations, Body: good.Body},
	}
	for _, w := range bad {
		if _, err := Execute(w, cfgFor(Serial, 1)); err == nil {
			t.Fatalf("workload %q accepted", w.Name)
		}
	}
	if _, err := Execute(good, Config{Procs: 0, Mode: Serial}); err == nil {
		t.Fatal("procs=0 accepted")
	}
	badElem := indepLoop(core.NonPriv, 8, 8, 1)
	badElem.Arrays[0].ElemSize = 3
	if _, err := Execute(badElem, cfgFor(Serial, 1)); err == nil {
		t.Fatal("elemSize=3 accepted")
	}
	pw := indepLoop(core.NonPriv, 8, 8, 1)
	pw.SWProcWise = true
	pw.SWSched = sched.Config{Kind: sched.Dynamic, Chunk: 1}
	if _, err := Execute(pw, cfgFor(SW, 2)); err == nil {
		t.Fatal("processor-wise with dynamic scheduling accepted")
	}
	if _, err := Execute(good, Config{Procs: directory.MaxProcs + 1, Mode: HW}); err == nil {
		t.Fatalf("procs=%d accepted (machine supports at most %d)", directory.MaxProcs+1, directory.MaxProcs)
	}
	// A shaped mesh caps the processor count; the error names the bound.
	_, err := Execute(good, Config{Procs: 32, Mode: HW, Topology: interconnect.Mesh, MeshW: 4, MeshH: 4})
	if err == nil {
		t.Fatal("procs=32 on a 4x4 mesh accepted")
	}
	if !strings.Contains(err.Error(), "[1,16]") {
		t.Fatalf("capacity error does not name the 16-node bound: %v", err)
	}
	if _, err := Execute(good, Config{Procs: 16, Mode: HW, Topology: interconnect.Mesh, MeshW: 4}); err == nil {
		t.Fatal("half-specified mesh shape accepted")
	}
	if _, err := Execute(good, Config{Procs: 1, Mode: Serial, L1Bytes: -1}); err == nil {
		t.Fatal("negative cache override accepted")
	}
}

// Cache size overrides are checked against the machine's line size up
// front: an odd size is a run: error naming the field, not a panic in
// machine construction, and a valid non-power-of-two size simulates.
func TestCacheSizeOverrideValidation(t *testing.T) {
	w := indepLoop(core.NonPriv, 8, 8, 1)
	cases := []struct {
		name    string
		l1, l2  int
		wantErr string // "" means the run must succeed
	}{
		{"l1-not-line-multiple", 100, 0, "L1Bytes"},
		{"l2-below-line", 0, 32, "L2Bytes"},
		{"l1-exceeds-l2", 1 << 20, 0, "L1Bytes"},
		{"l1-non-pow2", 192, 0, ""},
		{"both-non-pow2", 192, 960, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Execute(w, Config{Mode: HW, Procs: 4, L1Bytes: tc.l1, L2Bytes: tc.l2})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid override rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("invalid override accepted")
			case tc.wantErr != "" && (!strings.HasPrefix(err.Error(), "run: ") || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %q does not start with run: and name %s", err, tc.wantErr)
			}
		})
	}
}

// CheckInvariants must not change simulation results, and a healthy
// protocol must satisfy every invariant across passing, failing and
// epoch-windowed HW executions.
func TestHWCheckInvariants(t *testing.T) {
	cases := []struct {
		name string
		w    *Workload
		cfg  Config
	}{
		{name: "nonpriv-pass", w: indepLoop(core.NonPriv, 64, 64, 100), cfg: cfgFor(HW, 4)},
		{name: "nonpriv-fail", w: depLoop(core.NonPriv, 16), cfg: cfgFor(HW, 4)},
		{name: "priv-pass", w: indepLoop(core.Priv, 64, 64, 100), cfg: cfgFor(HW, 4)},
		{name: "priv-fail", w: depLoop(core.Priv, 16), cfg: cfgFor(HW, 4)},
		{name: "priv-epochs", w: indepLoop(core.Priv, 64, 64, 100),
			cfg: Config{Procs: 4, Mode: HW, Contention: true, EpochIters: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := MustExecute(tc.w, tc.cfg)
			checked := tc.cfg
			checked.CheckInvariants = true
			r := MustExecute(tc.w, checked)
			if r.InvariantErr != nil {
				t.Fatalf("invariant violation: %v", r.InvariantErr)
			}
			if r.Cycles != plain.Cycles || r.Failures != plain.Failures {
				t.Fatalf("checking changed the simulation: cycles %d vs %d, failures %d vs %d",
					r.Cycles, plain.Cycles, r.Failures, plain.Failures)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{Serial: "Serial", Ideal: "Ideal", SW: "SW", HW: "HW"}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should stringify")
	}
}

func TestBreakdownRoughlyCoversWallTime(t *testing.T) {
	w := indepLoop(core.NonPriv, 128, 128, 200)
	r := MustExecute(w, cfgFor(HW, 4))
	total := r.Breakdown.Total()
	// The average per-processor time should be within 25% of the wall
	// time (the end barrier folds imbalance into Sync).
	lo, hi := r.Cycles*3/4, r.Cycles*5/4
	if total < lo || total > hi {
		t.Fatalf("breakdown total %d vs wall %d out of range", total, r.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		return MustExecute(indepLoop(core.Priv, 64, 64, 100), cfgFor(HW, 4))
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.Breakdown != b.Breakdown {
		t.Fatalf("non-deterministic: %d/%d", a.Cycles, b.Cycles)
	}
}

func TestEpochIterationsHW(t *testing.T) {
	// A privatizable workload with epochs every 16 iterations: still
	// passes, with the extra synchronizations costing time.
	mk := func(epoch int) *Workload {
		return &Workload{
			Name:       "epochs",
			Executions: 1,
			Iterations: func(int) int { return 128 },
			Arrays: []ArraySpec{
				{Name: "T", Elems: 64, ElemSize: 4, Test: core.Priv, RICO: true},
			},
			Body: func(exec, iter int, c *Ctx) {
				c.Store(0, iter%64)
				c.Compute(100)
				c.Load(0, iter%64)
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 2},
		}
	}
	plain := MustExecute(mk(0), Config{Procs: 4, Mode: HW, Contention: true})
	cfg := Config{Procs: 4, Mode: HW, Contention: true, EpochIters: 16}
	epoched := MustExecute(mk(16), cfg)
	if epoched.Failures != 0 {
		t.Fatalf("epoched run failed: %+v", epoched.FirstFailure)
	}
	if plain.Failures != 0 {
		t.Fatalf("plain run failed: %+v", plain.FirstFailure)
	}
	if epoched.Cycles <= plain.Cycles {
		t.Fatalf("epoch synchronizations should cost time: %d vs %d",
			epoched.Cycles, plain.Cycles)
	}
}

func TestEpochCrossEpochDependenceStillFails(t *testing.T) {
	// Iteration 10 writes, iteration 100 reads: they land in different
	// epochs (every 32), and the dependence must still be detected.
	w := &Workload{
		Name:       "epochs-dep",
		Executions: 1,
		Iterations: func(int) int { return 128 },
		Arrays: []ArraySpec{
			{Name: "T", Elems: 64, ElemSize: 4, Test: core.Priv, RICO: true},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(50)
			if iter == 10 {
				c.Store(0, 7)
			}
			if iter == 100 {
				c.Load(0, 7)
			}
			c.Store(0, 32+iter%32)
			c.Load(0, 32+iter%32)
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
	}
	r := MustExecute(w, Config{Procs: 4, Mode: HW, Contention: true, EpochIters: 32})
	if r.Failures != 1 {
		t.Fatalf("cross-epoch dependence missed: %+v", r)
	}
}

func TestSparseBackupCheaperWhenWritesSparse(t *testing.T) {
	// A large array where only a few elements are written: saving
	// individual elements on first write beats copying the whole array
	// (§2.2.1).
	mk := func(sparse bool) *Workload {
		return &Workload{
			Name:       "sparse",
			Executions: 1,
			Iterations: func(int) int { return 32 },
			Arrays: []ArraySpec{
				{Name: "A", Elems: 1 << 15, ElemSize: 4, Test: core.NonPriv, SparseBackup: sparse},
			},
			Body: func(exec, iter int, c *Ctx) {
				c.Compute(100)
				c.Store(0, iter) // 32 of 32768 elements written
				c.Load(0, iter)
			},
		}
	}
	full := MustExecute(mk(false), cfgFor(HW, 4))
	sparse := MustExecute(mk(true), cfgFor(HW, 4))
	if full.Failures+sparse.Failures != 0 {
		t.Fatalf("failures: full=%d sparse=%d", full.Failures, sparse.Failures)
	}
	if sparse.Cycles >= full.Cycles {
		t.Fatalf("sparse backup (%d) not cheaper than full (%d)", sparse.Cycles, full.Cycles)
	}
}

func TestSparseBackupRestoreOnFailure(t *testing.T) {
	// A failing loop with sparse backup: the restore phase copies only
	// saved lines, and the failure handling still completes.
	w := depLoop(core.NonPriv, 64)
	w.Arrays[0].SparseBackup = true
	serial := MustExecute(w, cfgFor(Serial, 1))
	r := MustExecute(w, cfgFor(HW, 4))
	if r.Failures != 1 {
		t.Fatalf("failures = %d", r.Failures)
	}
	if r.Cycles <= serial.Cycles {
		t.Fatal("failed run should still include serial re-execution")
	}
}

func TestSparseBackupSavesOncePerExecution(t *testing.T) {
	// Two executions: the saved-set resets, so each execution saves its
	// written elements again (the backup must hold pre-execution state).
	w := indepLoop(core.NonPriv, 16, 16, 50)
	w.Executions = 2
	w.Arrays[0].SparseBackup = true
	r := MustExecute(w, cfgFor(HW, 2))
	if r.Failures != 0 {
		t.Fatalf("failures = %d", r.Failures)
	}
}

func TestCopyOutChargedForLiveOutArrays(t *testing.T) {
	mk := func(liveOut bool) *Workload {
		return &Workload{
			Name:       "liveout",
			Executions: 1,
			Iterations: func(int) int { return 64 },
			Arrays: []ArraySpec{
				{Name: "T", Elems: 64, ElemSize: 4, Test: core.Priv, RICO: true, LiveOut: liveOut},
			},
			Body: func(exec, iter int, c *Ctx) {
				c.Store(0, iter)
				c.Compute(50)
				c.Load(0, iter)
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 2},
		}
	}
	with := MustExecute(mk(true), cfgFor(HW, 4))
	without := MustExecute(mk(false), cfgFor(HW, 4))
	if with.Failures+without.Failures != 0 {
		t.Fatal("unexpected failures")
	}
	if with.Cycles <= without.Cycles {
		t.Fatalf("copy-out should cost cycles: liveOut %d vs %d", with.Cycles, without.Cycles)
	}
}

func TestExceptionAbortsAndReexecutesSerially(t *testing.T) {
	mk := func() *Workload {
		return &Workload{
			Name:       "excepting",
			Executions: 1,
			Iterations: func(int) int { return 64 },
			Arrays: []ArraySpec{
				{Name: "A", Elems: 64, ElemSize: 4, Test: core.NonPriv},
			},
			Body: func(exec, iter int, c *Ctx) {
				c.Compute(100)
				c.Store(0, iter)
				if iter == 10 {
					c.Exception() // misspeculation artifact
				}
			},
		}
	}
	serial := MustExecute(mk(), cfgFor(Serial, 1))
	if serial.Exceptions != 0 {
		t.Fatal("serial execution must ignore speculative exceptions")
	}
	for _, mode := range []Mode{SW, HW} {
		r := MustExecute(mk(), cfgFor(mode, 4))
		if r.Exceptions != 1 {
			t.Fatalf("%v: exceptions = %d, want 1", mode, r.Exceptions)
		}
		if r.Failures != 0 {
			t.Fatalf("%v: exception misclassified as failure", mode)
		}
		if r.Cycles <= serial.Cycles {
			t.Fatalf("%v: exception handling (%d) must include serial re-execution (%d)",
				mode, r.Cycles, serial.Cycles)
		}
	}
}

func TestExceptionDetectedImmediately(t *testing.T) {
	// Unlike a dependence (which SW only discovers after the loop), an
	// exception aborts the speculative execution immediately under both
	// schemes (§2.2).
	w := &Workload{
		Name:       "exc-early",
		Executions: 1,
		Iterations: func(int) int { return 512 },
		Arrays: []ArraySpec{
			{Name: "A", Elems: 64, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(200)
			if iter == 0 {
				c.Exception()
			}
			c.Store(0, iter%64)
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
	}
	hw := MustExecute(w, cfgFor(HW, 4))
	sw := MustExecute(w, cfgFor(SW, 4))
	if hw.Exceptions != 1 || sw.Exceptions != 1 {
		t.Fatalf("exceptions hw=%d sw=%d", hw.Exceptions, sw.Exceptions)
	}
	// 512 iterations x 200 cycles / 4 procs ≈ 25k cycles of loop; the
	// iteration-0 exception must abort within a small fraction of that.
	for _, r := range []*Result{hw, sw} {
		if r.FailDetectCycles > 5000 {
			t.Fatalf("%v: exception detected late (%d cycles)", r.Mode, r.FailDetectCycles)
		}
	}
}

func TestAdaptivePolicyStopsSpeculating(t *testing.T) {
	// A loop that fails every execution: after 2 consecutive failures
	// the adaptive policy runs the rest serially, avoiding the wasted
	// speculation.
	mk := func(adaptive int) (*Workload, Config) {
		w := depLoop(core.NonPriv, 64)
		w.Executions = 8
		cfg := cfgFor(HW, 4)
		cfg.AdaptiveAfter = adaptive
		return w, cfg
	}
	w, cfg := mk(0)
	always := MustExecute(w, cfg)
	w, cfg = mk(2)
	adaptive := MustExecute(w, cfg)
	if always.Failures != 8 {
		t.Fatalf("baseline failures = %d, want 8", always.Failures)
	}
	if adaptive.Failures != 2 || adaptive.SerialFallbacks != 6 {
		t.Fatalf("adaptive: failures=%d fallbacks=%d, want 2/6",
			adaptive.Failures, adaptive.SerialFallbacks)
	}
	if adaptive.Cycles >= always.Cycles {
		t.Fatalf("adaptive (%d) not cheaper than always-speculate (%d)",
			adaptive.Cycles, always.Cycles)
	}
}

func TestAdaptivePolicyResetsOnSuccess(t *testing.T) {
	// Failures alternate with successes: the consecutive counter resets,
	// so speculation continues.
	w := &Workload{
		Name:       "alternating",
		Executions: 6,
		Iterations: func(int) int { return 32 },
		Arrays: []ArraySpec{
			{Name: "A", Elems: 64, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(50)
			c.Store(0, iter)
			if exec%2 == 0 && iter == 1 {
				c.Load(0, 0) // dependence on even executions only
			}
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
	}
	cfg := cfgFor(HW, 4)
	cfg.AdaptiveAfter = 2
	r := MustExecute(w, cfg)
	if r.SerialFallbacks != 0 {
		t.Fatalf("alternating loop fell back (%d): counter did not reset", r.SerialFallbacks)
	}
	if r.Failures != 3 {
		t.Fatalf("failures = %d, want 3 (even executions)", r.Failures)
	}
}

func TestThirtyTwoProcessorSmoke(t *testing.T) {
	// The machine scales beyond the paper's 16 processors (sharer
	// bitsets hold 64); a quick 32-processor run keeps that path alive.
	w := indepLoop(core.NonPriv, 256, 256, 400)
	serial := MustExecute(w, cfgFor(Serial, 1))
	hw := MustExecute(w, cfgFor(HW, 32))
	if hw.Failures != 0 {
		t.Fatalf("32-proc HW failed: %+v", hw.FirstFailure)
	}
	if sp := Speedup(serial, hw); sp < 2 {
		t.Fatalf("32-proc speedup %.2f too low", sp)
	}
}

// TestWideBitStorageOnDemand runs one execution of a loop under test on
// a 1024-processor mesh with the wide ablation's 8 KB / 64 KB caches.
// Only lines of the array under test carry access bits, so the caches'
// bit storage stays a few hundred bytes per processor instead of one
// window per frame (1,152 frames of 16 words each here).
func TestWideBitStorageOnDemand(t *testing.T) {
	const procs = 1024
	w := indepLoop(core.NonPriv, 2*procs, 2*procs, 20)
	w.Arrays[0].ElemSize = 16
	cfg := cfgFor(HW, procs)
	cfg.Topology, cfg.L1Bytes, cfg.L2Bytes = interconnect.Mesh, 8<<10, 64<<10
	s := newSession(w, cfg)
	defer s.m.Release()
	s.runOne(0, &Result{Verdicts: map[string]lrpd.Verdict{}})
	bits, frames := 0, 0
	for _, pr := range s.m.Procs {
		bits += pr.L1.BitBytes() + pr.L2.BitBytes()
		frames += pr.L1.Lines() + pr.L2.Lines()
	}
	perFrame := frames * 16 // one 16-word window per frame, allocated up front
	t.Logf("%d procs: access-bit storage %d B, one window per frame would be %d B", procs, bits, perFrame)
	if bits > perFrame/100 || bits > 1<<20 {
		t.Fatalf("access-bit storage %d B, want under 1%% of %d B and under 1 MB", bits, perFrame)
	}
}

// A privatized array sized so that its per-processor copies pass the
// caches' address bound only at directory.MaxProcs: Validate rejects that
// machine with an error naming the bound, laying the space out on a
// scratch space without allocating anything per element, and accepts
// one processor fewer.
func TestAddressBoundAtMaxProcs(t *testing.T) {
	l1, _ := cacheConfigs(Config{})
	limit := l1.MaxAddr()
	pages := int(limit / mem.PageSize)
	// At n processors HW lays out 1 + plain + (n+1)*priv pages (page 0
	// is never allocated); at MaxProcs that is one page over.
	priv := (pages - 1) / (directory.MaxProcs + 1)
	plain := pages - (directory.MaxProcs+1)*priv
	w := indepLoop(core.Priv, 8, 8, 1)
	w.Arrays = []ArraySpec{
		{Name: "V", Elems: priv * mem.PageSize / 4, ElemSize: 4, Test: core.Priv},
		{Name: "P", Elems: plain * mem.PageSize / 4, ElemSize: 4},
	}
	sp := mem.NewSpace(directory.MaxProcs)
	if _, fits := layoutSpace(sp, w, cfgFor(HW, directory.MaxProcs), directory.MaxProcs, limit); fits || sp.TotalBytes() != limit+mem.PageSize {
		t.Fatalf("layout at %d processors = %d bytes (fits %v), want one page over %d", directory.MaxProcs, sp.TotalBytes(), fits, limit)
	}
	want := fmt.Sprintf("%d GB address bound", limit>>30)
	bound := func(cfg Config) {
		t.Helper()
		err := Validate(w, cfg)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%v at %d processors: Validate = %v, want the %s", cfg.Mode, cfg.Procs, err, want)
		}
	}
	bound(cfgFor(HW, directory.MaxProcs))
	bound(cfgFor(SW, directory.MaxProcs))
	for _, cfg := range []Config{cfgFor(HW, directory.MaxProcs-1), cfgFor(Serial, directory.MaxProcs), cfgFor(Ideal, directory.MaxProcs)} {
		if err := Validate(w, cfg); err != nil {
			t.Fatalf("%v at %d processors rejected: %v", cfg.Mode, cfg.Procs, err)
		}
	}
	// An adaptive run may pick any strategy: declared non-privatized, the
	// array fits HW at MaxProcs, but its privatizing variant does not.
	w.Arrays[0].Test = core.NonPriv
	if err := Validate(w, cfgFor(HW, directory.MaxProcs)); err != nil {
		t.Fatalf("non-privatized at %d processors rejected: %v", directory.MaxProcs, err)
	}
	adaptive := cfgFor(HW, directory.MaxProcs)
	adaptive.Policy = policy.Adaptive
	bound(adaptive)
}
