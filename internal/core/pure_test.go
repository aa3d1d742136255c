package core

import (
	"reflect"
	"testing"

	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/machine"
	"specrt/internal/mem"
)

// pureSnap is everything a speculative access can change: machine, core
// and cache statistics, processor 0's copies of the accessed line, the
// deferred messages in flight and the recorded failure.
type pureSnap struct {
	M       machine.Stats
	C       Stats
	Caches  []cache.Stats
	L1, L2  lineCopy
	Pending int
	Failure *Failure
}

type lineCopy struct {
	State cache.State
	Bits  []abits.Word
}

func copyLine(c *cache.Cache, line mem.Addr) lineCopy {
	if fr := c.Lookup(line); fr != nil {
		return lineCopy{fr.State(), append([]abits.Word(nil), c.Bits(fr)...)}
	}
	return lineCopy{}
}

func snapPure(e *env, line mem.Addr) pureSnap {
	s := pureSnap{M: e.m.Stats, C: e.c.Stats, Pending: e.m.Eng.Pending(), Failure: e.c.Failed()}
	for _, pr := range e.m.Procs {
		s.Caches = append(s.Caches, pr.L1.Stats, pr.L2.Stats)
	}
	pr := e.m.Procs[0]
	s.L1, s.L2 = copyLine(pr.L1, line), copyLine(pr.L2, line)
	return s
}

// TestTryAccessPureArms builds each hit arm of Figures 6-(a), 6-(c), 8-(a)
// and 9-(f) through real accesses and checks that TryRead/TryWrite by
// processor 0 perform exactly the pure ones: a refused access changes
// nothing, and a performed one leaves the machine exactly as Read/Write
// leaves an identically built twin.
func TestTryAccessPureArms(t *testing.T) {
	// Setup errors are not checked here: any failure is recorded by the
	// controller, and the test refuses a row whose setup failed.
	rd := func(e *env, p, i int) { e.c.Read(p, e.c.arrays[0].Region.ElemAddr(i)) }
	wr := func(e *env, p, i int) { e.c.Write(p, e.c.arrays[0].Region.ElemAddr(i)) }
	// l1Alias is an address outside the array in the L1 set of element 0
	// (32 KB L1) but another L2 set (512 KB L2).
	l1Alias := func(e *env) mem.Addr { return e.c.arrays[0].Region.Base + 32*1024 }
	// The FAIL rows hold the line dirty, where only the FAIL test keeps
	// the access from being pure.
	rows := []struct {
		name  string
		priv  bool
		setup func(*env)
		write bool
		pure  bool
	}{
		// Figure 6-(a), processor read of element 0.
		{"np read FAIL", false, func(e *env) { wr(e, 1, 0); wr(e, 0, 1) }, false, false},
		{"np read FirstNone clean", false, func(e *env) { rd(e, 0, 1) }, false, false},
		{"np read FirstNone dirty", false, func(e *env) { wr(e, 0, 1) }, false, true},
		{"np read FirstOther clean", false, func(e *env) { rd(e, 1, 0); rd(e, 0, 1) }, false, false},
		{"np read FirstOther dirty", false, func(e *env) { rd(e, 1, 0); wr(e, 0, 1) }, false, true},
		{"np read FirstOther ROnly", false, func(e *env) { rd(e, 1, 0); rd(e, 0, 0) }, false, true},
		{"np read already claimed", false, func(e *env) { rd(e, 0, 0) }, false, true},
		{"np read L2 hit", false, func(e *env) {
			wr(e, 0, 1)
			e.m.Read(0, l1Alias(e)) // evicts the line to L2 only
		}, false, true},
		{"np read L2 hit, dirty L1 victim without L2 copy", false, func(e *env) {
			wr(e, 0, 1)
			e.m.Procs[0].L1.Install(l1Alias(e), cache.Dirty, nil)
		}, false, false},
		// Figure 6-(c), processor write of element 0.
		{"np write FAIL", false, func(e *env) { rd(e, 1, 0); wr(e, 0, 1) }, true, false},
		{"np write clean upgrade", false, func(e *env) { rd(e, 0, 0) }, true, false},
		{"np write dirty", false, func(e *env) { wr(e, 0, 1) }, true, true},
		// Figure 8-(a), processor read of element 0 in iteration 1.
		{"pv read first touch", true, func(e *env) { rd(e, 0, 1) }, false, false},
		{"pv read already marked", true, func(e *env) { rd(e, 0, 0) }, false, true},
		{"pv read after write", true, func(e *env) { wr(e, 0, 0) }, false, true},
		// Figure 9-(f), processor write of element 0.
		{"pv write clean upgrade", true, func(e *env) { rd(e, 0, 0) }, true, false},
		{"pv write dirty first-ever write", true, func(e *env) { wr(e, 0, 1) }, true, false},
		{"pv write dirty, written in an earlier iteration", true, func(e *env) {
			wr(e, 0, 0)
			e.c.BeginIteration(0, 2)
		}, true, true},
		{"pv write dirty after a completed epoch", true, func(e *env) {
			wr(e, 0, 0)
			e.c.EpochSync()
			e.c.BeginIteration(0, 1)
		}, true, true},
		{"pv write already marked", true, func(e *env) { wr(e, 0, 0) }, true, true},
	}
	build := func(t *testing.T, priv bool, setup func(*env)) (*env, mem.Addr, mem.Addr) {
		e := newEnv(t, 2)
		r := e.alloc("A", 32, 4)
		line := r.Base
		if priv {
			copies := PrivCopies(e.m.Space, r, 2)
			e.c.AddPriv(r, copies, true)
			line = copies[0].Base
		} else {
			e.c.AddNonPriv(r)
		}
		e.c.Arm()
		if priv {
			e.c.BeginIteration(0, 1)
		}
		setup(e)
		e.settle()
		return e, r.ElemAddr(0), line
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e, a, line := build(t, row.priv, row.setup)
			if e.failed() != nil {
				t.Fatalf("setup failed: %v", e.failed())
			}
			before := snapPure(e, line)
			try := e.c.TryRead
			if row.write {
				try = e.c.TryWrite
			}
			lat, ok := try(0, a)
			if ok != row.pure {
				t.Fatalf("ok = %v, want %v", ok, row.pure)
			}
			got := snapPure(e, line)
			if !ok {
				if !reflect.DeepEqual(got, before) {
					t.Fatalf("refused access changed state\nbefore %+v\nafter  %+v", before, got)
				}
				return
			}
			twin, _, _ := build(t, row.priv, row.setup)
			step := twin.c.Read
			if row.write {
				step = twin.c.Write
			}
			want, err := step(0, a)
			if err != nil || lat != want {
				t.Fatalf("pure access: latency %d, stepped twin %d (err %v)", lat, want, err)
			}
			if w := snapPure(twin, line); !reflect.DeepEqual(got, w) {
				t.Fatalf("pure access and its stepped twin differ\npure    %+v\nstepped %+v", got, w)
			}
		})
	}
}
