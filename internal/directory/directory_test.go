package directory

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestEntrySize pins the hardware-motivated packing: a directory entry
// is 16 bytes at every machine size, because the sharer set is always a
// single word (inline bits, slab handle, or coarse vector).
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Fatalf("Entry is %d bytes, want 16", got)
	}
}

func newStore(t *testing.T, mode Mode, procs int) *Store {
	t.Helper()
	var st Store
	st.configure(mode, procs)
	return &st
}

func TestProcSetOps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		procs int
	}{
		{"inline", FullMap, 64},
		{"spilled", FullMap, 128},
		{"coarse", Coarse, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStore(t, tc.mode, tc.procs)
			var s ProcSet
			s = st.Add(s, 3)
			s = st.Add(s, 7)
			s = st.Add(s, 3)
			if !st.Has(s, 3) || !st.Has(s, 7) || st.Has(s, 0) {
				t.Fatalf("membership wrong: %v", st.Members(s))
			}
			if st.Count(s) != 2 {
				t.Fatalf("Count = %d, want 2", st.Count(s))
			}
			s = st.Remove(s, 3)
			if st.Has(s, 3) || st.Count(s) != 1 {
				t.Fatalf("Remove failed: %v", st.Members(s))
			}
			if !st.Only(s, 7) {
				t.Fatal("Only(7) false after removing 3")
			}
			s = st.Add(s, 1)
			if st.Only(s, 7) {
				t.Fatal("Only(7) true with two sharers")
			}
			s = st.Remove(s, 7)
			s = st.Remove(s, 1)
			if !st.Empty(s) {
				t.Fatalf("set not empty after removing all: %v", st.Members(s))
			}
		})
	}
}

func TestProcSetForEachOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  Mode
		procs int
		ins   []int
	}{
		{"inline", FullMap, 64, []int{9, 2, 31, 0}},
		{"spilled", FullMap, 1024, []int{700, 9, 64, 1023, 2, 128}},
		{"coarse-pointers", Coarse, 1024, []int{700, 9, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newStore(t, tc.mode, tc.procs)
			var s ProcSet
			for _, p := range tc.ins {
				s = st.Add(s, p)
			}
			got := st.Members(s)
			want := append([]int(nil), tc.ins...)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("ForEach visited %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ForEach order %v, want %v", got, want)
				}
			}
		})
	}
}

// TestProcSetCoarseOverflow checks the limited-pointer → coarse-vector
// transition: the fifth sharer converts the entry to group bits, the
// represented set becomes a superset covering every original sharer, and
// removals in overflow form never drop a true sharer.
func TestProcSetCoarseOverflow(t *testing.T) {
	st := newStore(t, Coarse, 1024) // group size 17
	var s ProcSet
	ins := []int{3, 200, 850, 41}
	for _, p := range ins {
		s = st.Add(s, p)
	}
	if !st.IsExact(s) || st.Count(s) != 4 {
		t.Fatalf("four pointers should be exact: %v", st.Members(s))
	}
	s = st.Add(s, 999) // fifth sharer: overflow
	if st.IsExact(s) {
		t.Fatal("overflowed set still claims exactness")
	}
	for _, p := range append(ins, 999) {
		if !st.Has(s, p) {
			t.Fatalf("overflow dropped sharer %d: %v", p, st.Members(s))
		}
	}
	if st.Count(s) < 5 {
		t.Fatalf("superset smaller than true set: %d", st.Count(s))
	}
	s = st.Remove(s, 3)
	if !st.Has(s, 3) {
		t.Fatal("coarse Remove must be conservative in overflow form")
	}
	// At group size 1 (P <= 63) overflow stays exact and removable.
	st = newStore(t, Coarse, 63)
	s = 0
	for p := 0; p < 6; p++ {
		s = st.Add(s, p)
	}
	if !st.IsExact(s) || st.Count(s) != 6 {
		t.Fatalf("group-size-1 overflow should stay exact: %v", st.Members(s))
	}
	for p := 0; p < 6; p++ {
		s = st.Remove(s, p)
	}
	if !st.Empty(s) {
		t.Fatalf("group-size-1 set not empty after removing all: %v", st.Members(s))
	}
}

// TestProcSetProperties drives every representation against a
// map[int]bool model of the true sharer set. Exact representations must
// match the model; the coarse mode must always cover it and must match
// whenever it claims exactness.
func TestProcSetProperties(t *testing.T) {
	for _, procs := range []int{1, 63, 64, 65, 127, 128, 1024} {
		for _, mode := range []Mode{FullMap, Coarse} {
			st := newStore(t, mode, procs)
			rng := rand.New(rand.NewSource(int64(procs)*7 + int64(mode)))
			var s ProcSet
			ref := map[int]bool{}
			for step := 0; step < 4000; step++ {
				p := rng.Intn(procs)
				switch rng.Intn(5) {
				case 0:
					// The true set always loses p; a coarse overflow
					// representation may conservatively keep covering it.
					s = st.Remove(s, p)
					delete(ref, p)
				default:
					s = st.Add(s, p)
					ref[p] = true
				}
				for q := range ref {
					if !st.Has(s, q) {
						t.Fatalf("P=%d mode=%v step %d: dropped true sharer %d (set %v)",
							procs, mode, step, q, st.Members(s))
					}
				}
				got := st.Members(s)
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						t.Fatalf("P=%d mode=%v: ForEach not ascending: %v", procs, mode, got)
					}
				}
				if n := st.Count(s); n != len(got) {
					t.Fatalf("P=%d mode=%v: Count %d != len(Members) %d", procs, mode, n, len(got))
				}
				if st.IsExact(s) {
					if len(got) != len(ref) {
						t.Fatalf("P=%d mode=%v step %d: exact set %v != model %v",
							procs, mode, step, got, ref)
					}
				} else if len(got) < len(ref) {
					t.Fatalf("P=%d mode=%v: superset %d smaller than model %d",
						procs, mode, len(got), len(ref))
				}
				if st.Empty(s) != (len(got) == 0) {
					t.Fatalf("P=%d mode=%v: Empty=%v but members %v", procs, mode, st.Empty(s), got)
				}
				wantOnly := len(got) == 1 && got[0] == p
				if st.Only(s, p) != wantOnly {
					t.Fatalf("P=%d mode=%v: Only(%d)=%v, members %v", procs, mode, p, st.Only(s, p), got)
				}
			}
		}
	}
}

// TestProcSetInlineNoAlloc proves the P <= 64 fast path never touches
// the heap: directory operations in the default configuration must cost
// exactly what the old uint64 Sharers cost.
func TestProcSetInlineNoAlloc(t *testing.T) {
	st := newStore(t, FullMap, 64)
	var sink int
	visit := func(p int) { sink += p }
	allocs := testing.AllocsPerRun(100, func() {
		var s ProcSet
		for p := 0; p < 64; p += 3 {
			s = st.Add(s, p)
		}
		s = st.Remove(s, 9)
		if !st.Has(s, 3) || st.Count(s) == 0 || st.Only(s, 3) || st.Empty(s) {
			panic("inline semantics broken")
		}
		st.ForEach(s, visit)
	})
	if allocs != 0 {
		t.Fatalf("inline ProcSet path allocated %v times per run", allocs)
	}
}

// TestProcSetSpilledReset checks slab recycling: Reset reclaims every
// spilled set, and sets built afterwards start empty.
func TestProcSetSpilledReset(t *testing.T) {
	st := newStore(t, FullMap, 256)
	var s ProcSet
	s = st.Add(s, 200)
	s = st.Add(s, 5)
	if st.slabs.Live() != 1 {
		t.Fatalf("live slabs = %d, want 1", st.slabs.Live())
	}
	st.reset()
	if st.slabs.Live() != 0 {
		t.Fatalf("live slabs after reset = %d, want 0", st.slabs.Live())
	}
	var s2 ProcSet
	s2 = st.Add(s2, 7)
	if got := st.Members(s2); len(got) != 1 || got[0] != 7 {
		t.Fatalf("recycled slab not clean: %v", got)
	}
}

func TestModeNames(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{
		{"full-map", FullMap}, {"fullmap", FullMap}, {"full", FullMap}, {"", FullMap},
		{"coarse", Coarse},
	} {
		got, err := ModeByName(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ModeByName(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ModeByName("bogus"); err == nil {
		t.Fatal("ModeByName accepted bogus name")
	}
	b, err := Coarse.MarshalText()
	if err != nil || string(b) != "coarse" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var m Mode
	if err := m.UnmarshalText([]byte("coarse")); err != nil || m != Coarse {
		t.Fatalf("UnmarshalText = %v, %v", m, err)
	}
	if err := m.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted bogus name")
	}
}

func TestEntryLifecycle(t *testing.T) {
	d := New(0)
	e := d.Entry(0x1000)
	if e.State != Uncached {
		t.Fatalf("fresh entry state = %v", e.State)
	}
	d.AddSharer(e, 2)
	d.AddSharer(e, 5)
	if e.State != Shared || d.SharerCount(e) != 2 {
		t.Fatalf("after AddSharer: %+v", *e)
	}
	if !d.HasSharer(e, 2) || d.HasSharer(e, 3) || d.OnlySharer(e, 2) || d.NoSharers(e) {
		t.Fatalf("sharer queries wrong: %v", d.Store().Members(e.Sharers))
	}
	d.SetDirty(e, 5)
	if e.State != Dirty || e.Owner != 5 || !d.NoSharers(e) {
		t.Fatalf("after SetDirty: %+v", *e)
	}
	d.ClearToUncached(e)
	if e.State != Uncached || !d.NoSharers(e) {
		t.Fatalf("after ClearToUncached: %+v", *e)
	}
}

func TestEntryIdentity(t *testing.T) {
	d := New(1)
	a := d.Entry(0x40)
	b := d.Entry(0x40)
	if a != b {
		t.Fatal("Entry returned different pointers for same line")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	if d.Peek(0x80) != nil {
		t.Fatal("Peek created an entry")
	}
	if d.Peek(0x40) != a {
		t.Fatal("Peek missed existing entry")
	}
}

func TestReset(t *testing.T) {
	d := New(0)
	d.SetDirty(d.Entry(0x40), 1)
	d.Reset()
	if d.Len() != 0 {
		t.Fatal("Reset left entries")
	}
	if d.Entry(0x40).State != Uncached {
		t.Fatal("entry after Reset not Uncached")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Uncached: "UNCACHED", Shared: "SHARED", Dirty: "DIRTY"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	if State(7).String() == "" {
		t.Fatal("unknown state should stringify")
	}
}
