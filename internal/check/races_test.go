package check

import (
	"testing"

	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// These tests force each ordering of the three §3.2 (Figure 7) race
// arms explicitly: per-source MsgDelay skews decide which deferred
// update message reaches the home first, engine pumping decides where
// synchronous home visits land between them, and sim.SeededOrder decides
// ties between same-cycle deliveries.

// raceEnv is a small non-privatization machine with an invariant checker
// attached and per-source message delays under test control.
type raceEnv struct {
	m     *machine.Machine
	c     *core.Controller
	chk   *Checker
	r     mem.Region
	arr   *core.Array
	delay []sim.Time // extra message latency per source processor
	async *core.Failure
}

func newRaceEnv(t *testing.T, procs, elems int) *raceEnv {
	t.Helper()
	cfg := machine.DefaultConfig(procs)
	cfg.Contention = false
	m := machine.MustNew(cfg)
	env := &raceEnv{m: m, c: core.NewController(m), delay: make([]sim.Time, procs)}
	m.OnFail = func(err error) {
		if f, ok := err.(*core.Failure); ok && env.async == nil {
			env.async = f
		}
	}
	m.MsgDelay = func(from, to int, base sim.Time) sim.Time { return base + env.delay[from] }
	env.r = m.Space.Alloc("A", elems, 4, mem.RoundRobin, 0)
	env.arr = env.c.AddNonPriv(env.r)
	env.chk = Attach(m, env.c)
	env.c.Arm()
	env.chk.Rearm()
	return env
}

func (e *raceEnv) read(t *testing.T, p, elem int) error {
	t.Helper()
	_, err := e.c.Read(p, e.r.ElemAddr(elem))
	return err
}

func (e *raceEnv) write(t *testing.T, p, elem int) error {
	t.Helper()
	_, err := e.c.Write(p, e.r.ElemAddr(elem))
	return err
}

// drain delivers everything in flight.
func (e *raceEnv) drain() { e.m.Eng.Run() }

func (e *raceEnv) failed() *core.Failure {
	if f := e.c.Failed(); f != nil {
		return f
	}
	return e.async
}

// mustClean asserts no failure and no invariant violation so far.
func (e *raceEnv) mustClean(t *testing.T) {
	t.Helper()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected speculation failure: %v", f)
	}
	if err := e.chk.Err(); err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
}

// wantReason asserts the run failed for the given reason.
func (e *raceEnv) wantReason(t *testing.T, want core.FailReason) {
	t.Helper()
	f := e.failed()
	if f == nil {
		t.Fatalf("expected failure %q, run passed", want)
	}
	if f.Reason != want {
		t.Fatalf("failure reason = %q, want %q", f.Reason, want)
	}
}

// Rule 1 (Figure 7-(f)/(g)): two processors read the same element
// concurrently and both First_updates race to the home. Whichever
// arrives first wins First; the loser's update marks the element ROnly
// and bounces a First_update_fail that downgrades the loser's tag. No
// failure in either order.
func TestRaceConcurrentFirstUpdates(t *testing.T) {
	cases := []struct {
		name      string
		slow      int // processor whose First_update is delayed
		wantFirst int // the other one wins
	}{
		{name: "p0-first", slow: 1, wantFirst: 0},
		{name: "p1-first", slow: 0, wantFirst: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newRaceEnv(t, 2, 4)
			// Prefill: install the line clean in both caches via reads
			// of neighbor elements, so the racing reads below are clean
			// hits whose First_updates do not stall (Figure 6-(a)).
			if err := env.read(t, 0, 1); err != nil {
				t.Fatal(err)
			}
			if err := env.read(t, 1, 2); err != nil {
				t.Fatal(err)
			}
			env.drain()

			env.delay[tc.slow] = 500
			if err := env.read(t, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := env.read(t, 1, 0); err != nil {
				t.Fatal(err)
			}
			env.drain()

			env.mustClean(t)
			first, noShr, rOnly := env.arr.NPState(0)
			if first != tc.wantFirst || noShr || !rOnly {
				t.Fatalf("elem 0 state = (first=%d noShr=%t rOnly=%t), want (first=%d noShr=false rOnly=true)",
					first, noShr, rOnly, tc.wantFirst)
			}
			if err := env.chk.CheckQuiesced(); err != nil {
				t.Fatalf("quiesced invariant violation: %v", err)
			}
		})
	}
}

// Rule 1, losing side wrote (Figure 7-(g) and the merge that backs it
// up). The paper's FailTwoFirstUpdates arm covers a write request
// overtaking the writer's own First_update; this simulator's network
// delivers each (source, home) pair in FIFO order — a processor's fetch
// drains its own queued updates first — so that overtaking cannot
// happen. The interesting forced ordering that remains: P0's update is
// drained ahead of its dirtying write and wins First, P0 then writes the
// element while dirty (tag OWN+NoShr, no home visit), and P1's racing
// update arrives late, marking the element ROnly against P0's hidden
// write. Nothing fails while in flight — the bounce finds P1's copy
// invalidated — and the cross-processor read/write dependence is caught
// only when P0's dirty tags merge at the loop-end writeback.
func TestRaceFirstUpdateLoserWroteCaughtAtMerge(t *testing.T) {
	env := newRaceEnv(t, 2, 4)
	if err := env.read(t, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := env.read(t, 1, 3); err != nil {
		t.Fatal(err)
	}
	env.drain()

	// Both First_updates go into flight; P1's is the slower one.
	env.delay[0] = 500
	env.delay[1] = 300
	if err := env.read(t, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := env.read(t, 1, 0); err != nil {
		t.Fatal(err)
	}

	// P0's upgrade on a neighbor element drains P0's own First_update
	// through the home (it wins First), dirties the line, and then the
	// write of element 0 stays purely local: tag OWN+NoShr.
	if err := env.write(t, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := env.write(t, 0, 0); err != nil {
		t.Fatal(err)
	}
	// P1's update loses, marks the element ROnly, and bounces against an
	// invalidated copy: still no failure — the write is hidden dirty.
	env.drain()
	env.mustClean(t)
	first, noShr, rOnly := env.arr.NPState(0)
	if first != 0 || noShr || !rOnly {
		t.Fatalf("elem 0 state = (first=%d noShr=%t rOnly=%t), want (first=0 noShr=false rOnly=true)",
			first, noShr, rOnly)
	}

	// Loop end: the dirty tags meet the directory and the dependence
	// materializes (the npMergeLine conflict check).
	env.m.FlushCaches()
	env.wantReason(t, core.FailMergeConflict)
}

// Rule 2 (Figure 7-(f) vs Figure 6-(d)): a First_update races a write by
// another processor. Write first: the update meets NoShr at the home and
// FAILs (FailFirstVsWrite). Update first: the write request meets a
// foreign First and FAILs (FailWriteOfShared). Both orders must fail —
// only the detecting arm differs.
func TestRaceFirstUpdateVsWrite(t *testing.T) {
	cases := []struct {
		name        string
		updateDelay sim.Time
		want        core.FailReason
	}{
		{name: "write-reaches-home-first", updateDelay: 500, want: core.FailFirstVsWrite},
		{name: "update-reaches-home-first", updateDelay: 0, want: core.FailWriteOfShared},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newRaceEnv(t, 2, 4)
			if err := env.read(t, 1, 1); err != nil { // prefill P1 only
				t.Fatal(err)
			}
			env.drain()

			env.delay[1] = tc.updateDelay
			if err := env.read(t, 1, 0); err != nil { // clean hit: defers First_update
				t.Fatal(err)
			}
			if tc.updateDelay == 0 {
				env.drain() // update wins the race to the home
			}
			err := env.write(t, 0, 0) // write request serviced at the home now
			env.drain()               // deliver whatever is still in flight
			if tc.want == core.FailWriteOfShared && err == nil {
				t.Fatalf("write after foreign First_update unexpectedly succeeded")
			}
			env.wantReason(t, tc.want)
		})
	}
}

// Rule 3 (Figure 7-(h)): concurrent ROnly_updates for an element First
// by a third processor are idempotent — either arrival order leaves the
// element ROnly with no failure.
func TestRaceConcurrentROnlyUpdates(t *testing.T) {
	cases := []struct {
		name string
		slow int
	}{
		{name: "p0-update-first", slow: 1},
		{name: "p1-update-first", slow: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newRaceEnv(t, 3, 4)
			// P2 claims First for element 0 via a read miss, then P0/P1
			// prefill the line: their copies tag element 0 FirstOther.
			if err := env.read(t, 2, 0); err != nil {
				t.Fatal(err)
			}
			if err := env.read(t, 0, 1); err != nil {
				t.Fatal(err)
			}
			if err := env.read(t, 1, 2); err != nil {
				t.Fatal(err)
			}
			env.drain()

			env.delay[tc.slow] = 500
			if err := env.read(t, 0, 0); err != nil { // clean hit: defers ROnly_update
				t.Fatal(err)
			}
			if err := env.read(t, 1, 0); err != nil {
				t.Fatal(err)
			}
			env.drain()

			env.mustClean(t)
			first, noShr, rOnly := env.arr.NPState(0)
			if first != 2 || noShr || !rOnly {
				t.Fatalf("elem 0 state = (first=%d noShr=%t rOnly=%t), want (first=2 noShr=false rOnly=true)",
					first, noShr, rOnly)
			}
			if err := env.chk.CheckQuiesced(); err != nil {
				t.Fatalf("quiesced invariant violation: %v", err)
			}
		})
	}
}

// Rule 3 vs a write: a ROnly_update races the First processor's write
// upgrade. Write first: the update meets NoShr (FailROnlyVsWrite).
// Update first: the upgrade meets ROnly (FailWriteOfShared).
func TestRaceROnlyUpdateVsWrite(t *testing.T) {
	cases := []struct {
		name        string
		updateDelay sim.Time
		want        core.FailReason
	}{
		{name: "write-reaches-home-first", updateDelay: 500, want: core.FailROnlyVsWrite},
		{name: "update-reaches-home-first", updateDelay: 0, want: core.FailWriteOfShared},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newRaceEnv(t, 2, 4)
			// P1 claims First for element 0; P0 prefills with FirstOther.
			if err := env.read(t, 1, 0); err != nil {
				t.Fatal(err)
			}
			if err := env.read(t, 0, 1); err != nil {
				t.Fatal(err)
			}
			env.drain()

			env.delay[0] = tc.updateDelay
			if err := env.read(t, 0, 0); err != nil { // clean hit: defers ROnly_update
				t.Fatal(err)
			}
			if tc.updateDelay == 0 {
				env.drain()
			}
			err := env.write(t, 1, 0) // First processor upgrades its own element
			env.drain()
			if tc.want == core.FailWriteOfShared && err == nil {
				t.Fatalf("write of read-shared element unexpectedly succeeded")
			}
			env.wantReason(t, tc.want)
		})
	}
}

// Same-cycle ties: when both First_updates are scheduled for the same
// cycle, sim.SeededOrder decides delivery. Across seeds both winners
// must be observed, and every replay must satisfy the invariants.
func TestRaceSameCycleSeededOrder(t *testing.T) {
	winners := map[int]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		env := newRaceEnv(t, 2, 4)
		env.m.Eng.SetOrderPolicy(sim.SeededOrder(seed))
		if err := env.read(t, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := env.read(t, 1, 2); err != nil {
			t.Fatal(err)
		}
		env.drain()
		// Same cycle, same base latency: arrival order is the policy's.
		if err := env.read(t, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := env.read(t, 1, 0); err != nil {
			t.Fatal(err)
		}
		env.drain()
		env.mustClean(t)
		first, _, _ := env.arr.NPState(0)
		winners[first] = true
	}
	if !winners[0] || !winners[1] {
		t.Fatalf("64 seeds never flipped the same-cycle race: winners = %v", winners)
	}
}

// The injected first-vs-write-flip bug disables the Figure 7-(f) bounce
// arm; the forced write-first ordering that normally FAILs instead
// corrupts the directory, and the checker must catch it on the spot.
func TestInjectedFlipCaughtByChecker(t *testing.T) {
	env := newRaceEnv(t, 2, 4)
	env.c.Inject = core.InjectFirstVsWriteFlip
	if err := env.read(t, 1, 1); err != nil {
		t.Fatal(err)
	}
	env.drain()
	env.delay[1] = 500
	if err := env.read(t, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := env.write(t, 0, 0); err != nil {
		t.Fatal(err)
	}
	env.drain()
	if env.failed() != nil {
		t.Fatalf("injected bug was supposed to suppress the failure, got %v", env.failed())
	}
	if err := env.chk.Err(); err == nil {
		t.Fatal("checker missed the injected first-vs-write-flip corruption")
	}
}

// runOnProcessors executes the stream's per-processor subsequences (each
// processor's program order preserved, interleaving decided by the
// simulated timing) through a full processor system on a fresh machine
// with the stream's protocol armed, and reports the abort's failure, if
// any.
func runOnProcessors(t *testing.T, s *Stream) (aborted bool, failure *core.Failure) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid stream: %v", err)
	}
	cfg := machine.DefaultConfig(s.Procs)
	cfg.Contention = false
	m := machine.MustNew(cfg)
	c := core.NewController(m)
	r := m.Space.Alloc("A", s.Elems, s.ElemSize, mem.RoundRobin, 0)
	if s.Priv {
		c.AddPriv(r, core.PrivCopies(m.Space, r, m.Cfg.Procs), s.RICO)
	} else {
		c.AddNonPriv(r)
	}
	c.Arm()

	perProc := make([][]cpu.Instr, s.Procs)
	curIter := make([]int, s.Procs)
	for _, a := range s.Accesses {
		p := a.Proc
		if s.Priv && curIter[p] != a.Iter {
			curIter[p] = a.Iter
			perProc[p] = append(perProc[p], cpu.BeginIter(a.Iter))
		}
		if a.Write {
			perProc[p] = append(perProc[p], cpu.Store(r.ElemAddr(a.Elem)))
		} else {
			perProc[p] = append(perProc[p], cpu.Load(r.ElemAddr(a.Elem)))
		}
		perProc[p] = append(perProc[p], cpu.Compute(3))
	}
	ids := make([]int, s.Procs)
	srcs := make([]cpu.Source, s.Procs)
	for p := range ids {
		ids[p] = p
		srcs[p] = cpu.SliceSource(perProc[p])
	}
	sys := cpu.NewSystem(m, c)
	sys.Run(ids, srcs)
	failure, aborted = sys.Aborted()
	return aborted, failure
}

// TestRaceMatrixOnProcessors runs the §3.2 race archetypes, and two
// privatization shapes, through full processor systems: the racy shapes
// abort, with the verdict of the LRPD oracle, and the others complete.
func TestRaceMatrixOnProcessors(t *testing.T) {
	np := func(acc ...Access) *Stream {
		return &Stream{Procs: 2, Elems: 32, ElemSize: 4, Accesses: acc}
	}
	pv := func(acc ...Access) *Stream {
		return &Stream{Procs: 2, Elems: 32, ElemSize: 4, Priv: true, Accesses: acc}
	}
	cases := []struct {
		name  string
		abort bool
		s     *Stream
	}{
		{"concurrent-first-reads", false, np(
			Access{Proc: 0, Elem: 5}, Access{Proc: 1, Elem: 5},
			Access{Proc: 0, Elem: 5}, Access{Proc: 1, Elem: 5},
		)},
		{"read-only-sharing", false, np(
			Access{Proc: 0, Elem: 1}, Access{Proc: 1, Elem: 1},
			Access{Proc: 0, Elem: 2}, Access{Proc: 1, Elem: 2},
			Access{Proc: 1, Elem: 1}, Access{Proc: 0, Elem: 2},
		)},
		{"first-update-vs-write", true, np(
			Access{Proc: 0, Elem: 7},
			Access{Proc: 1, Elem: 7, Write: true},
			Access{Proc: 0, Elem: 7},
		)},
		{"ronly-vs-write", true, np(
			Access{Proc: 0, Elem: 3}, Access{Proc: 1, Elem: 3},
			Access{Proc: 1, Elem: 3, Write: true},
		)},
		{"disjoint-writes", false, np(
			Access{Proc: 0, Elem: 0, Write: true}, Access{Proc: 1, Elem: 16, Write: true},
			Access{Proc: 0, Elem: 1, Write: true}, Access{Proc: 1, Elem: 17, Write: true},
			Access{Proc: 0, Elem: 0}, Access{Proc: 1, Elem: 16},
		)},
		{"priv-write-then-read", false, pv(
			Access{Proc: 0, Iter: 1, Elem: 4, Write: true}, Access{Proc: 0, Iter: 1, Elem: 4},
			Access{Proc: 1, Iter: 2, Elem: 4, Write: true}, Access{Proc: 1, Iter: 2, Elem: 4},
		)},
		{"priv-cross-iter-war", true, pv(
			Access{Proc: 0, Iter: 1, Elem: 9},
			Access{Proc: 1, Iter: 2, Elem: 9, Write: true},
			Access{Proc: 0, Iter: 1, Elem: 9},
		)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			aborted, f := runOnProcessors(t, tc.s)
			if aborted != tc.abort || aborted != tc.s.ExpectedFail() {
				t.Fatalf("aborted=%v, want %v, oracle %v (failure: %v)", aborted, tc.abort, tc.s.ExpectedFail(), f)
			}
			if aborted && f == nil {
				t.Fatal("aborted without a recorded failure")
			}
		})
	}
}
