package directory

import (
	"fmt"
	"math/rand"
	"testing"

	"specrt/internal/mem"
)

// TestForEachOrderStable is the regression test for the old map walk:
// iteration must visit lines in increasing address order, and repeated
// walks must visit the identical sequence, regardless of insertion order.
func TestForEachOrderStable(t *testing.T) {
	d := New(0)
	ins := []mem.Addr{0x1c0, 0x40, 0x3000, 0x80, 0x2fc0, 0xc0}
	for _, line := range ins {
		d.AddSharer(d.Entry(line), 1)
	}
	walk := func() []mem.Addr {
		var got []mem.Addr
		d.ForEach(func(line mem.Addr, _ *Entry) { got = append(got, line) })
		return got
	}
	first := walk()
	if len(first) != len(ins) {
		t.Fatalf("ForEach visited %d lines, want %d", len(first), len(ins))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("ForEach out of order: %v", first)
		}
	}
	for trial := 0; trial < 3; trial++ {
		again := walk()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("ForEach unstable: walk %d gave %v, first gave %v", trial, again, first)
			}
		}
	}
}

// TestForEachNoAlloc pins down the point of the dense table: the walk no
// longer collects and sorts keys, so it must not allocate.
func TestForEachNoAlloc(t *testing.T) {
	d := New(0)
	for line := mem.Addr(0x40); line < 0x4000; line += 0x40 {
		d.AddSharer(d.Entry(line), 2)
	}
	var visited int
	allocs := testing.AllocsPerRun(10, func() {
		visited = 0
		d.ForEach(func(line mem.Addr, e *Entry) { visited++ })
	})
	if visited == 0 {
		t.Fatal("ForEach visited nothing")
	}
	if allocs != 0 {
		t.Fatalf("ForEach allocated %v times per walk", allocs)
	}
}

// TestSharedTablePartitioning checks that per-node views of one table
// partition it by home: each view enumerates exactly the lines it
// created, and counts are per-view.
func TestSharedTablePartitioning(t *testing.T) {
	tab := NewTable(64, 64, FullMap)
	d0, d1 := NewShared(0, tab), NewShared(1, tab)
	d0.AddSharer(d0.Entry(0x40), 3)
	d0.SetDirty(d0.Entry(0xc0), 1)
	d1.AddSharer(d1.Entry(0x80), 0)
	if d0.Len() != 2 || d1.Len() != 1 {
		t.Fatalf("Len = %d/%d, want 2/1", d0.Len(), d1.Len())
	}
	var l0, l1 []mem.Addr
	d0.ForEach(func(line mem.Addr, _ *Entry) { l0 = append(l0, line) })
	d1.ForEach(func(line mem.Addr, _ *Entry) { l1 = append(l1, line) })
	if len(l0) != 2 || l0[0] != 0x40 || l0[1] != 0xc0 {
		t.Fatalf("node 0 lines %v", l0)
	}
	if len(l1) != 1 || l1[0] != 0x80 {
		t.Fatalf("node 1 lines %v", l1)
	}
	if d0.Peek(0x80) == nil || d1.Peek(0x80) == nil {
		t.Fatal("Peek should see entries regardless of home")
	}
	epoch := tab.cur
	d0.Reset()
	d1.count = 0 // sibling views reset together; see Directory.Reset
	if d0.Len() != 0 || tab.cur == epoch {
		t.Fatal("Reset did not advance the shared epoch")
	}
	if d1.Peek(0x80) != nil {
		t.Fatal("entry survived shared-table Reset")
	}
}

// TestTableGrowth checks on-demand growth keeps earlier entries intact.
func TestTableGrowth(t *testing.T) {
	d := New(0)
	d.SetDirty(d.Entry(0x40), 7)
	far := mem.Addr(1 << 20)
	d.AddSharer(d.Entry(far), 2)
	e := d.Peek(0x40)
	if e == nil || e.State != Dirty || e.Owner != 7 {
		t.Fatalf("entry lost across growth: %+v", e)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

// TestDenseMatchesReference drives the dense directory and the retained
// map-backed Reference through the same random operation stream and
// asserts entry-for-entry equivalence plus identical iteration order —
// at the narrow scale the paper evaluates, past the one-word spill
// point, and in the coarse-vector mode, where the comparison degrades
// to the superset-never-drops contract after overflow.
func TestDenseMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		mode  Mode
		procs int
	}{
		{FullMap, 16},
		{FullMap, 128},
		{FullMap, 1024},
		{Coarse, 16},
		{Coarse, 128},
		{Coarse, 1024},
	} {
		t.Run(fmt.Sprintf("%v-%d", tc.mode, tc.procs), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			const lines = 64
			d := NewShared(0, NewTable(64, tc.procs, tc.mode))
			st := d.Store()
			ref := NewReference(0)
			for step := 0; step < 20000; step++ {
				line := mem.Addr(rng.Intn(lines)) * 64
				switch rng.Intn(10) {
				case 0:
					d.Reset()
					ref.Reset()
				case 1, 2:
					p := rng.Intn(tc.procs)
					d.SetDirty(d.Entry(line), p)
					ref.Entry(line).SetDirty(p)
				case 3:
					d.ClearToUncached(d.Entry(line))
					ref.Entry(line).ClearToUncached()
				case 4:
					de, re := d.Peek(line), ref.Peek(line)
					if (de == nil) != (re == nil) {
						t.Fatalf("step %d: Peek(0x%x) presence dense=%v reference=%v", step, line, de != nil, re != nil)
					}
				default:
					p := rng.Intn(tc.procs)
					d.AddSharer(d.Entry(line), p)
					ref.Entry(line).AddSharer(p)
				}
				probe := mem.Addr(rng.Intn(lines)) * 64
				if de := d.Peek(probe); de != nil {
					if err := Matches(st, de, ref.Peek(probe)); err != nil {
						t.Fatalf("step %d line 0x%x: %v", step, probe, err)
					}
				}
			}
			if d.Len() != ref.Len() {
				t.Fatalf("Len dense=%d reference=%d", d.Len(), ref.Len())
			}
			var denseWalk, refWalk []mem.Addr
			d.ForEach(func(line mem.Addr, e *Entry) {
				denseWalk = append(denseWalk, line)
				if err := Matches(st, e, ref.Peek(line)); err != nil {
					t.Fatalf("line 0x%x: %v", line, err)
				}
			})
			ref.ForEach(func(line mem.Addr, _ *RefEntry) { refWalk = append(refWalk, line) })
			if len(denseWalk) != len(refWalk) {
				t.Fatalf("walk lengths differ: dense %d, reference %d", len(denseWalk), len(refWalk))
			}
			for i := range denseWalk {
				if denseWalk[i] != refWalk[i] {
					t.Fatalf("iteration order diverges at %d: dense 0x%x, reference 0x%x", i, denseWalk[i], refWalk[i])
				}
			}
		})
	}
}
