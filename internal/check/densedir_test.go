package check

import (
	"math/rand"
	"testing"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// replayMirrored replays stream s under orderSeed with the invariant
// checker attached and a map-backed directory.Reference per home node
// shadowing every transacted line: after each directory transaction the
// dense entry of the transacted line is copied into the mirror. Entries
// can be transacted many times, so at quiesce the mirror holds each
// line's state as of its *last* transaction — if the dense table loses
// or corrupts an entry afterwards (epoch aliasing, growth moving
// entries, home-tag partition errors), the entry-for-entry comparison
// catches it. The stream replays twice across a FlushCaches, which
// resets both the dense table's epoch and the mirror, exercising the
// O(1) reset path the map implementation never had.
func replayMirrored(t *testing.T, s *Stream, orderSeed uint64, mode directory.Mode) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(s.Procs)
	cfg.Contention = false
	cfg.DirMode = mode
	m := machine.MustNew(cfg)
	c := core.NewController(m)
	m.OnFail = func(error) {} // FAILs are fine; the directories must still agree
	r := m.Space.Alloc("A", s.Elems, s.ElemSize, mem.RoundRobin, 0)
	if s.Priv {
		c.AddPriv(r, core.PrivCopies(m.Space, r, m.Cfg.Procs), s.RICO)
	} else {
		c.AddNonPriv(r)
	}
	m.Eng.SetOrderPolicy(sim.SeededOrder(orderSeed))

	chk := Attach(m, c)
	mirrors := make([]*directory.Reference, len(m.Dirs))
	for i := range mirrors {
		mirrors[i] = directory.NewReference(i)
	}
	inner := m.OnTransaction
	m.OnTransaction = func(kind machine.TxKind, proc int, line mem.Addr) {
		inner(kind, proc, line)
		home := m.HomeOf(line)
		re := mirrors[home].Entry(line)
		if e := m.Dirs[home].Peek(line); e != nil {
			re.CopyFrom(m.DirTable.Store(), e)
		} else {
			re.ClearToUncached()
		}
	}

	rng := rand.New(rand.NewSource(int64(orderSeed)))
	perProc := make([][]Access, s.Procs)
	for _, a := range s.Accesses {
		perProc[a.Proc] = append(perProc[a.Proc], a)
	}
	for round := 0; round < 2; round++ {
		c.Arm()
		chk.Rearm()
		idx := make([]int, s.Procs)
		curIter := make([]int, s.Procs)
		avail := make([]int, 0, s.Procs)
		for c.Failed() == nil {
			avail = avail[:0]
			for p := 0; p < s.Procs; p++ {
				if idx[p] < len(perProc[p]) {
					avail = append(avail, p)
				}
			}
			if len(avail) == 0 {
				break
			}
			p := avail[rng.Intn(len(avail))]
			a := perProc[p][idx[p]]
			idx[p]++
			if s.Priv && curIter[p] != a.Iter {
				curIter[p] = a.Iter
				c.BeginIteration(p, a.Iter)
			}
			if a.Write {
				c.Write(p, r.ElemAddr(a.Elem)) //nolint:errcheck // failure observed via Failed()
			} else {
				c.Read(p, r.ElemAddr(a.Elem)) //nolint:errcheck
			}
			if rng.Intn(3) == 0 {
				m.Eng.RunUntil(m.Eng.Now() + sim.Time(rng.Intn(800)))
			}
		}
		m.Eng.Run()
		compareMirrors(t, m, mirrors, round)
		c.Disarm()
		m.FlushCaches()
		// The flush reset the dense table's epoch; the mirror resets with
		// it, and both must now read as empty.
		for i := range mirrors {
			mirrors[i].Reset()
		}
		for node, d := range m.Dirs {
			if n := d.Len(); n != 0 {
				t.Fatalf("round %d: node %d directory tracks %d lines after flush, want 0", round, node, n)
			}
		}
	}
}

// compareMirrors asserts, for each home node, (a) every mirrored line
// agrees entry-for-entry with the dense directory, (b) the dense walk
// visits lines in strictly increasing address order, and (c) every
// dense-tracked line agrees with the mirror.
func compareMirrors(t *testing.T, m *machine.Machine, mirrors []*directory.Reference, round int) {
	t.Helper()
	st := m.DirTable.Store()
	for node, ref := range mirrors {
		d := m.Dirs[node]
		ref.ForEach(func(line mem.Addr, re *directory.RefEntry) {
			e := d.Peek(line)
			if e == nil {
				if re.State != directory.Uncached || len(re.Sharers) != 0 {
					t.Fatalf("round %d node %d line 0x%x: mirror has %+v but dense entry is gone",
						round, node, line, *re)
				}
				return
			}
			if err := directory.Matches(st, e, re); err != nil {
				t.Fatalf("round %d node %d line 0x%x: %v", round, node, line, err)
			}
		})
		prev := mem.Addr(0)
		first := true
		d.ForEach(func(line mem.Addr, e *directory.Entry) {
			if !first && line <= prev {
				t.Fatalf("round %d node %d: dense walk out of order at 0x%x (prev 0x%x)",
					round, node, line, prev)
			}
			first, prev = false, line
			if err := directory.Matches(st, e, ref.Peek(line)); err != nil {
				t.Fatalf("round %d node %d line 0x%x: %v", round, node, line, err)
			}
		})
	}
}

// TestDenseDirectoryMatchesReferenceFuzz replays generated fuzz streams
// (the same generator the interleaving fuzzer uses) against the
// map-backed reference directory.
func TestDenseDirectoryMatchesReferenceFuzz(t *testing.T) {
	sc, err := ScaleByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 24; seed++ {
		s := Generate(seed, sc)
		for orderSeed := uint64(0); orderSeed < 3; orderSeed++ {
			replayMirrored(t, s, seed*31+orderSeed, directory.FullMap)
		}
	}
}

// TestDenseDirectoryMatchesReferenceWide replays generated fuzz streams
// on 128-processor machines — past the one-word spill point of the
// full-map vector and deep into pointer-overflow territory for the
// coarse vector — in both directory modes. The mirror comparison proves
// the multi-word and coarse sharer paths store and enumerate entries
// exactly like the map-backed reference, and the attached invariant
// checker separately asserts that no cached copy is ever missing from
// its line's (possibly widened) sharer set.
func TestDenseDirectoryMatchesReferenceWide(t *testing.T) {
	sc := Scale{Name: "wide", MaxProcs: 128, Procs: 128, MaxElems: 64, MaxSteps: 160}
	for _, mode := range []directory.Mode{directory.FullMap, directory.Coarse} {
		t.Run(mode.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				s := Generate(seed, sc)
				if s.Procs != 128 {
					t.Fatalf("scale did not force proc count: got %d", s.Procs)
				}
				for orderSeed := uint64(0); orderSeed < 2; orderSeed++ {
					replayMirrored(t, s, seed*31+orderSeed, mode)
				}
			}
		})
	}
}

// TestDenseDirectoryMatchesReferenceRaces replays the §3.2 race shapes —
// the access patterns behind the concurrent First_update, First_update
// vs write, and ROnly_update races — under several delivery orders.
func TestDenseDirectoryMatchesReferenceRaces(t *testing.T) {
	races := map[string]*Stream{
		"concurrent-first-updates": {
			Procs: 2, Elems: 8, ElemSize: 4,
			Accesses: []Access{{Proc: 0, Elem: 3}, {Proc: 1, Elem: 3}},
		},
		"first-update-loser-wrote": {
			Procs: 2, Elems: 8, ElemSize: 4,
			Accesses: []Access{
				{Proc: 0, Elem: 3}, {Proc: 1, Elem: 3}, {Proc: 1, Elem: 3, Write: true},
			},
		},
		"first-update-vs-write": {
			Procs: 2, Elems: 8, ElemSize: 4,
			Accesses: []Access{{Proc: 0, Elem: 3}, {Proc: 1, Elem: 3, Write: true}},
		},
		"concurrent-ronly-updates": {
			Procs: 3, Elems: 8, ElemSize: 4,
			Accesses: []Access{
				{Proc: 0, Elem: 3}, {Proc: 1, Elem: 3}, {Proc: 2, Elem: 3},
			},
		},
		"ronly-update-vs-write": {
			Procs: 3, Elems: 8, ElemSize: 4,
			Accesses: []Access{
				{Proc: 0, Elem: 3}, {Proc: 1, Elem: 3}, {Proc: 2, Elem: 3, Write: true},
			},
		},
		"priv-read-first-vs-first-write": {
			Procs: 2, Elems: 8, ElemSize: 4, Priv: true, RICO: true,
			Accesses: []Access{
				{Proc: 0, Iter: 1, Elem: 3}, {Proc: 1, Iter: 2, Elem: 3, Write: true},
				{Proc: 0, Iter: 3, Elem: 3, Write: true}, {Proc: 1, Iter: 4, Elem: 3},
			},
		},
	}
	for name, s := range races {
		t.Run(name, func(t *testing.T) {
			for orderSeed := uint64(0); orderSeed < 8; orderSeed++ {
				replayMirrored(t, s, orderSeed, directory.FullMap)
			}
		})
	}
}
