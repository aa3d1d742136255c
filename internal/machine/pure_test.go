package machine

import (
	"reflect"
	"testing"

	"specrt/internal/cache"
	"specrt/internal/directory"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// plainSnap is everything a plain access can change: machine and cache
// statistics, processor 0's copies of the accessed line, its directory
// entry and the events pending.
type plainSnap struct {
	M       Stats
	Caches  []cache.Stats
	L1, L2  cache.State
	Dir     directory.Entry
	Pending int
}

func snapPlain(m *Machine, a mem.Addr) plainSnap {
	s := plainSnap{M: m.Stats, Dir: *m.Dir(a), Pending: m.Eng.Pending()}
	for _, pr := range m.Procs {
		s.Caches = append(s.Caches, pr.L1.Stats, pr.L2.Stats)
	}
	if fr := m.Procs[0].L1.Lookup(a); fr != nil {
		s.L1 = fr.State()
	}
	if fr := m.Procs[0].L2.Lookup(a); fr != nil {
		s.L2 = fr.State()
	}
	return s
}

// TestTryFastAccessPureArms checks the plain read and write arms the
// same way core's TestTryAccessPureArms checks the speculative ones:
// TryFastRead/TryFastWrite by processor 0 perform exactly the pure hits,
// a refused access changes nothing, and a performed one leaves the
// machine as Read/Write leaves an identically built twin.
func TestTryFastAccessPureArms(t *testing.T) {
	// alias(k) shares the L1 set (32 KB L1) of the accessed line but not
	// its L2 set (512 KB L2).
	alias := func(a mem.Addr, k int) mem.Addr { return a + mem.Addr(k*32*1024) }
	toL2 := func(m *Machine, a mem.Addr) { m.Read(0, alias(a, 1)) } // evicts a from L1
	rows := []struct {
		name  string
		setup func(m *Machine, a mem.Addr)
		write bool
		pure  bool
	}{
		{"read L1 hit", func(m *Machine, a mem.Addr) { m.Read(0, a) }, false, true},
		{"read L2 hit", func(m *Machine, a mem.Addr) { m.Read(0, a); toL2(m, a) }, false, true},
		{"read miss", func(m *Machine, a mem.Addr) {}, false, false},
		{"read L2 hit, dirty L1 victim without L2 copy", func(m *Machine, a mem.Addr) {
			m.Read(0, a)
			toL2(m, a)
			m.Procs[0].L1.Install(alias(a, 2), cache.Dirty, nil)
		}, false, false},
		{"write clean L1 hit", func(m *Machine, a mem.Addr) { m.Read(0, a) }, true, false},
		{"write dirty L1 hit", func(m *Machine, a mem.Addr) { m.Write(0, a) }, true, true},
		{"write clean L2 hit", func(m *Machine, a mem.Addr) { m.Read(0, a); toL2(m, a) }, true, false},
		{"write dirty L2 hit", func(m *Machine, a mem.Addr) { m.Write(0, a); toL2(m, a) }, true, true},
		{"write miss", func(m *Machine, a mem.Addr) {}, true, false},
	}
	build := func(t *testing.T, setup func(*Machine, mem.Addr)) (*Machine, mem.Addr) {
		m := testMachine(t, 2)
		a := localArray(m, "A", 16, 4, 1).ElemAddr(0)
		setup(m, a)
		m.Eng.Run()
		return m, a
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m, a := build(t, row.setup)
			before := snapPlain(m, a)
			try := m.TryFastRead
			if row.write {
				try = m.TryFastWrite
			}
			lat, ok := try(0, a)
			if ok != row.pure {
				t.Fatalf("ok = %v, want %v", ok, row.pure)
			}
			got := snapPlain(m, a)
			if !ok {
				if !reflect.DeepEqual(got, before) {
					t.Fatalf("refused access changed state\nbefore %+v\nafter  %+v", before, got)
				}
				return
			}
			twin, _ := build(t, row.setup)
			var want sim.Time
			if row.write {
				want = twin.Write(0, a)
			} else {
				want = twin.Read(0, a)
			}
			if lat != want {
				t.Fatalf("pure access: latency %d, stepped twin %d", lat, want)
			}
			if w := snapPlain(twin, a); !reflect.DeepEqual(got, w) {
				t.Fatalf("pure access and its stepped twin differ\npure    %+v\nstepped %+v", got, w)
			}
		})
	}
}
