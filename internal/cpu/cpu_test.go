package cpu

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"specrt/internal/core"
	"specrt/internal/machine"
	"specrt/internal/mem"
)

func newSys(t *testing.T, procs int, withCtl bool) (*System, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig(procs)
	cfg.Contention = false
	m := machine.MustNew(cfg)
	var ctl *core.Controller
	if withCtl {
		ctl = core.NewController(m)
	}
	return NewSystem(m, ctl), m
}

func TestComputeAccounting(t *testing.T) {
	s, _ := newSys(t, 1, false)
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{
		Compute(100), Compute(50),
	})})
	if elapsed != 150 {
		t.Fatalf("elapsed = %d, want 150", elapsed)
	}
	if s.Procs[0].B.Busy != 150 || s.Procs[0].B.Mem != 0 || s.Procs[0].B.Sync != 0 {
		t.Fatalf("breakdown = %+v", s.Procs[0].B)
	}
}

func TestLoadAccounting(t *testing.T) {
	s, m := newSys(t, 2, false)
	arr := m.Space.Alloc("A", 64, 4, mem.Local, 1)
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{
		Load(arr.ElemAddr(0)), // remote miss: 208
		Load(arr.ElemAddr(1)), // L1 hit: 1
	})})
	if elapsed != 209 {
		t.Fatalf("elapsed = %d, want 209", elapsed)
	}
	b := s.Procs[0].B
	if b.Busy != 2 || b.Mem != 207 {
		t.Fatalf("breakdown = %+v, want Busy 2 Mem 207", b)
	}
}

func TestStoreNonStalling(t *testing.T) {
	s, m := newSys(t, 2, false)
	arr := m.Space.Alloc("A", 64, 4, mem.Local, 1)
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{
		Store(arr.ElemAddr(0)), // remote write miss: processor sees 1
	})})
	if elapsed != 1 {
		t.Fatalf("elapsed = %d, want 1", elapsed)
	}
	if s.Procs[0].B.Mem != 0 {
		t.Fatalf("store charged Mem: %+v", s.Procs[0].B)
	}
}

func TestTwoProcsOverlap(t *testing.T) {
	s, _ := newSys(t, 2, false)
	elapsed := s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{Compute(100)}),
		SliceSource([]Instr{Compute(70)}),
	})
	if elapsed != 100 {
		t.Fatalf("parallel compute elapsed = %d, want 100", elapsed)
	}
}

func TestLockMutualExclusionAndSyncTime(t *testing.T) {
	s, _ := newSys(t, 2, false)
	// Both grab the lock and hold it for 100 cycles.
	prog := []Instr{LockAcq(1), Compute(100), LockRel(1)}
	s.Run([]int{0, 1}, []Source{SliceSource(prog), SliceSource(append([]Instr(nil), prog...))})
	b0, b1 := s.Procs[0].B, s.Procs[1].B
	// One of the two must have waited roughly the critical section.
	wait := b0.Sync + b1.Sync
	if wait < 100 {
		t.Fatalf("combined Sync = %d, expected >= 100 (critical section)", wait)
	}
	if b0.Busy != 100 || b1.Busy != 100 {
		t.Fatalf("busy = %d/%d, want 100/100", b0.Busy, b1.Busy)
	}
}

func TestLockHandoffOrder(t *testing.T) {
	s, _ := newSys(t, 3, false)
	var order []int
	mk := func(id int) Source {
		emitted := 0
		return func(p *Proc) []Instr {
			switch emitted {
			case 0:
				emitted++
				return []Instr{LockAcq(7)}
			case 1:
				emitted++
				order = append(order, id)
				return []Instr{LockRel(7)}
			}
			return nil
		}
	}
	s.Run([]int{0, 1, 2}, []Source{mk(0), mk(1), mk(2)})
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestReleaseUnheldLockPanics(t *testing.T) {
	s, _ := newSys(t, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld lock did not panic")
		}
	}()
	s.Run([]int{0}, []Source{SliceSource([]Instr{LockRel(3)})})
}

func TestBarrierReleasesTogether(t *testing.T) {
	s, _ := newSys(t, 2, false)
	s.SetBarrier(1, 2)
	var doneAt [2]int64
	mk := func(id int, work int64) Source {
		st := 0
		return func(p *Proc) []Instr {
			switch st {
			case 0:
				st++
				return []Instr{Compute(work)}
			case 1:
				st++
				return []Instr{Barrier(1)}
			}
			doneAt[id] = s.M.Eng.Now()
			return nil
		}
	}
	s.Run([]int{0, 1}, []Source{mk(0, 10), mk(1, 500)})
	if doneAt[0] != doneAt[1] {
		t.Fatalf("barrier exits differ: %v", doneAt)
	}
	// The fast processor waited ~490 cycles.
	if s.Procs[0].B.Sync < 490 {
		t.Fatalf("fast proc Sync = %d, want >= 490", s.Procs[0].B.Sync)
	}
}

func TestBarrierReuse(t *testing.T) {
	s, _ := newSys(t, 2, false)
	s.SetBarrier(1, 2)
	prog := []Instr{Barrier(1), Compute(10), Barrier(1)}
	elapsed := s.Run([]int{0, 1}, []Source{
		SliceSource(prog), SliceSource(append([]Instr(nil), prog...)),
	})
	if elapsed <= 0 {
		t.Fatal("barrier reuse deadlocked or no time elapsed")
	}
	for _, p := range s.Procs {
		if !p.Done {
			t.Fatal("processor stuck at reused barrier")
		}
	}
}

func TestUndeclaredBarrierPanics(t *testing.T) {
	s, _ := newSys(t, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared barrier did not panic")
		}
	}()
	s.Run([]int{0}, []Source{SliceSource([]Instr{Barrier(99)})})
}

func TestSpeculativeFailureAborts(t *testing.T) {
	s, m := newSys(t, 2, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddNonPriv(r)
	s.Ctl.Arm()
	// P0 writes elem 5 then spins; P1 reads elem 5 -> dependence.
	p0 := []Instr{Store(r.ElemAddr(5)), Compute(100000)}
	p1 := []Instr{Compute(500), Load(r.ElemAddr(5)), Compute(100000)}
	elapsed := s.Run([]int{0, 1}, []Source{SliceSource(p0), SliceSource(p1)})
	f, aborted := s.Aborted()
	if !aborted || f == nil {
		t.Fatal("dependence did not abort the run")
	}
	// Abort must cut the run short: both procs had 100000-cycle tails.
	if elapsed >= 100000 {
		t.Fatalf("abort too late: elapsed = %d", elapsed)
	}
}

func TestAsyncFailureAborts(t *testing.T) {
	s, m := newSys(t, 2, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddNonPriv(r)
	s.Ctl.Arm()
	// Both procs cache the line, then race First_update vs write: the
	// failure arrives via a deferred message (machine.OnFail).
	p0 := []Instr{Load(r.ElemAddr(0)), Compute(10), Load(r.ElemAddr(2)), Compute(100000)}
	p1 := []Instr{Load(r.ElemAddr(1)), Compute(11), Store(r.ElemAddr(2)), Compute(100000)}
	s.Run([]int{0, 1}, []Source{SliceSource(p0), SliceSource(p1)})
	if _, aborted := s.Aborted(); !aborted {
		t.Fatal("async race failure did not abort")
	}
}

func TestBeginIterCost(t *testing.T) {
	s, m := newSys(t, 1, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddPriv(r, core.PrivCopies(m.Space, r, m.Cfg.Procs), true)
	s.Ctl.Arm()
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{BeginIter(1)})})
	if elapsed != s.Ctl.IterClearCost {
		t.Fatalf("BeginIter cost = %d, want %d", elapsed, s.Ctl.IterClearCost)
	}
}

func TestInstrCounts(t *testing.T) {
	s, m := newSys(t, 1, false)
	arr := m.Space.Alloc("A", 64, 4, mem.Local, 0)
	s.Run([]int{0}, []Source{SliceSource([]Instr{
		Compute(1), Load(arr.ElemAddr(0)), Store(arr.ElemAddr(1)), Compute(2),
	})})
	p := s.Procs[0]
	if p.Instrs[KCompute] != 2 || p.Instrs[KLoad] != 1 || p.Instrs[KStore] != 1 {
		t.Fatalf("instr counts = %v", p.Instrs)
	}
}

func TestBreakdownAddTotal(t *testing.T) {
	a := Breakdown{Busy: 1, Mem: 2, Sync: 3}
	b := Breakdown{Busy: 10, Mem: 20, Sync: 30}
	a.Add(b)
	if a.Busy != 11 || a.Mem != 22 || a.Sync != 33 || a.Total() != 66 {
		t.Fatalf("Add/Total wrong: %+v", a)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KCompute: "compute", KLoad: "load", KStore: "store",
		KLockAcq: "lockacq", KLockRel: "lockrel", KBarrier: "barrier",
		KBeginIter: "beginiter",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}

func TestDynamicSourceSeesSharedState(t *testing.T) {
	// A Source that consults shared scheduling state at request time:
	// the slow processor gets fewer chunks.
	s, _ := newSys(t, 2, false)
	next := 0
	total := 10
	mk := func(cost int64) Source {
		pending := 0
		return func(p *Proc) []Instr {
			if pending > 0 {
				pending--
				return []Instr{Compute(cost)}
			}
			if next >= total {
				return nil
			}
			next++
			pending = 0
			return []Instr{Compute(cost)}
		}
	}
	s.Run([]int{0, 1}, []Source{mk(10), mk(100)})
	// Fast proc executed more chunks.
	if s.Procs[0].Instrs[KCompute] <= s.Procs[1].Instrs[KCompute] {
		t.Fatalf("dynamic imbalance not visible: %d vs %d",
			s.Procs[0].Instrs[KCompute], s.Procs[1].Instrs[KCompute])
	}
}

func TestDeadlockPanics(t *testing.T) {
	// A processor acquiring a lock that is never released by the holder
	// deadlocks; Run must panic rather than silently truncate the phase.
	s, _ := newSys(t, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked run did not panic")
		}
	}()
	s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{LockAcq(1), Compute(10)}), // holds forever
		SliceSource([]Instr{LockAcq(1), Compute(10)}), // waits forever
	})
}

func TestDeadlockPanicNamesWaiters(t *testing.T) {
	// The deadlock panic must carry enough to debug it: the simulated
	// time of the stall and, for each stuck processor, the object it is
	// blocked on. One processor reaches a two-party barrier that its
	// partner (stuck behind a never-released lock) can never join.
	s, _ := newSys(t, 2, false)
	s.SetBarrier(3, 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked run did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{
			"deadlock at simulated time 1", // p0 takes lock 7 (1 cycle) and reaches barrier 3; p1 blocks on the lock
			"processor 0 blocked at barrier 3",
			"processor 1 blocked at lock 7",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock panic %q missing %q", msg, want)
			}
		}
	}()
	s.Costs.LockAcquire = 1
	s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{LockAcq(7), Barrier(3)}), // holds the lock at the barrier
		SliceSource([]Instr{LockAcq(7), Barrier(3)}), // can never get there
	})
}

func TestLockStateResetsBetweenRuns(t *testing.T) {
	// An aborted run can leave a lock held; the next Run starts fresh.
	s, m := newSys(t, 2, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddNonPriv(r)
	s.Ctl.Arm()
	// P0 takes the lock then triggers a failure via P1's access.
	p0 := []Instr{LockAcq(1), Store(r.ElemAddr(5)), Compute(100000)}
	p1 := []Instr{Compute(200), Load(r.ElemAddr(5))}
	s.Run([]int{0, 1}, []Source{SliceSource(p0), SliceSource(p1)})
	if _, aborted := s.Aborted(); !aborted {
		t.Fatal("setup: run did not abort")
	}
	s.Ctl.Disarm()
	// A fresh run using the same lock must complete.
	done := s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{LockAcq(1), Compute(5), LockRel(1)}),
		SliceSource([]Instr{LockAcq(1), Compute(5), LockRel(1)}),
	})
	if done <= 0 {
		t.Fatal("post-abort run made no progress")
	}
	for _, p := range s.Procs {
		if !p.Done {
			t.Fatal("processor stuck on stale lock state")
		}
	}
}

func TestBatchSourceContract(t *testing.T) {
	// Two batches, the second with a lock in the middle, then the closing
	// empty batch: the processor runs every instruction once, accounts
	// every cycle it spent, and asks the source once per batch plus once
	// for the empty one.
	s, m := newSys(t, 1, false)
	a := m.Space.Alloc("A", 64, 4, mem.Local, 0).ElemAddr(0)
	batches := [][]Instr{
		{Load(a), Compute(3), Load(a), Compute(2)}, // miss, then an L1 hit
		{Compute(4), LockAcq(1), Compute(5), LockRel(1), Compute(6)},
	}
	calls := 0
	src := func(*Proc) []Instr {
		calls++
		if len(batches) == 0 {
			return nil
		}
		b := batches[0]
		batches = batches[1:]
		return b
	}
	elapsed := s.Run([]int{0}, []Source{src})
	p := s.Procs[0]
	if p.Instrs[KLockAcq] != 1 || p.Instrs[KLockRel] != 1 || p.Instrs[KLoad] != 2 || p.Instrs[KCompute] != 5 {
		t.Fatalf("processor ran %v", p.Instrs)
	}
	if p.B.Total() != elapsed {
		t.Fatalf("breakdown %+v accounts %d cycles, run took %d", p.B, p.B.Total(), elapsed)
	}
	if calls != 3 {
		t.Fatalf("source calls: %d, want 3 (two batches and the empty one)", calls)
	}
}

// An instruction is 16 bytes: a processor's buffers hold thousands.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 16 {
		t.Fatalf("Instr is %d bytes, want 16", n)
	}
}

// A stamped load or store keeps its address and carries slot and
// element; an element past int32 leaves it unstamped, so the controller
// translates its address itself.
func TestStampedAccess(t *testing.T) {
	const a = mem.Addr(1<<40 + 12)
	for _, tc := range []struct {
		in   Instr
		kind Kind
		slot uint8
		id   int32
	}{
		{LoadElem(a, core.FirstSlot+2, 7), KLoad, core.FirstSlot + 2, 7},
		{StoreElem(a, core.NoArray, math.MaxInt32), KStore, core.NoArray, math.MaxInt32},
		{LoadElem(a, core.FirstSlot, math.MaxInt32+1), KLoad, core.Unstamped, 0},
		{StoreElem(a, core.FirstSlot, 1<<40), KStore, core.Unstamped, 0},
	} {
		if tc.in.Kind != tc.kind || tc.in.Addr() != a || tc.in.Slot != tc.slot || tc.in.ID != tc.id {
			t.Errorf("got %v of %#x slot %d id %d, want %v slot %d id %d",
				tc.in.Kind, tc.in.Addr(), tc.in.Slot, tc.in.ID, tc.kind, tc.slot, tc.id)
		}
	}
}
