package arena

import (
	"math/rand"
	"testing"
)

func TestI32Basics(t *testing.T) {
	s := NewI32(8, -1)
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Get(3) != -1 {
		t.Fatalf("unset slot = %d, want default -1", s.Get(3))
	}
	s.Set(3, 42)
	if s.Get(3) != 42 {
		t.Fatalf("Get(3) = %d", s.Get(3))
	}
	s.Reset()
	if s.Get(3) != -1 {
		t.Fatalf("after Reset Get(3) = %d, want default", s.Get(3))
	}
	s.Set(3, 7)
	if s.Get(3) != 7 {
		t.Fatalf("set-after-Reset Get(3) = %d", s.Get(3))
	}
}

func TestI32EpochWrap(t *testing.T) {
	s := NewI32(2, 0)
	s.Set(0, 9)
	s.cur = ^uint32(0) // force the next Reset to wrap
	s.Reset()
	if s.cur != 1 {
		t.Fatalf("cur after wrap = %d, want 1", s.cur)
	}
	// The old tag was rewritten to 0, so the stale value must not leak
	// even though cur cycled back to a previously used epoch.
	if s.Get(0) != 0 {
		t.Fatalf("stale value leaked through epoch wrap: %d", s.Get(0))
	}
}

func TestBitsBasics(t *testing.T) {
	b := NewBits(130)
	if b.Get(129) {
		t.Fatal("fresh bit set")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(65) || b.Get(128) {
		t.Fatal("unset bit reads true")
	}
	b.Reset()
	for _, i := range []int{0, 63, 64, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d survived Reset", i)
		}
	}
}

func TestBitsForEachRangeOrdered(t *testing.T) {
	b := NewBits(256)
	want := []int{3, 63, 64, 100, 200, 255}
	// Set in shuffled order; iteration must still come out ascending.
	for _, i := range []int{200, 3, 255, 64, 100, 63} {
		b.Set(i)
	}
	var got []int
	b.ForEachRange(0, 256, func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Sub-range boundaries are half-open and word-edge safe.
	got = got[:0]
	b.ForEachRange(63, 201, func(i int) { got = append(got, i) })
	want = []int{63, 64, 100, 200}
	if len(got) != len(want) {
		t.Fatalf("sub-range got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sub-range got %v, want %v", got, want)
		}
	}
}

func TestBitsEpochWrap(t *testing.T) {
	b := NewBits(64)
	b.Set(5)
	b.cur = ^uint32(0)
	b.Reset()
	if b.Get(5) {
		t.Fatal("stale bit leaked through epoch wrap")
	}
	b.Set(6)
	if !b.Get(6) || b.Get(5) {
		t.Fatal("post-wrap set wrong")
	}
}

// Property: Bits agrees with a map across random Set/Reset sequences.
func TestBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	b := NewBits(n)
	ref := map[int]bool{}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(10) {
		case 0:
			b.Reset()
			ref = map[int]bool{}
		default:
			i := rng.Intn(n)
			b.Set(i)
			ref[i] = true
		}
		i := rng.Intn(n)
		if b.Get(i) != ref[i] {
			t.Fatalf("step %d: Get(%d) = %t, ref %t", step, i, b.Get(i), ref[i])
		}
	}
	count := 0
	b.ForEachRange(0, n, func(i int) {
		count++
		if !ref[i] {
			t.Fatalf("ForEachRange visited unset bit %d", i)
		}
	})
	if count != len(ref) {
		t.Fatalf("ForEachRange visited %d bits, ref has %d", count, len(ref))
	}
}

func TestI32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 64
	s := NewI32(n, -7)
	ref := map[int]int32{}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(12) {
		case 0:
			s.Reset()
			ref = map[int]int32{}
		default:
			i, v := rng.Intn(n), int32(rng.Intn(100))
			s.Set(i, v)
			ref[i] = v
		}
		i := rng.Intn(n)
		want, ok := ref[i]
		if !ok {
			want = -7
		}
		if s.Get(i) != want {
			t.Fatalf("step %d: Get(%d) = %d, want %d", step, i, s.Get(i), want)
		}
	}
}

func TestWindowsAllocFreeReset(t *testing.T) {
	w := NewWindows[uint64](3)
	if w.Width() != 3 {
		t.Fatalf("Width = %d, want 3", w.Width())
	}
	if w.Cap() != 0 {
		t.Fatalf("fresh allocator holds %d windows of storage, want 0", w.Cap())
	}
	a := w.Alloc()
	b := w.Alloc()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("Alloc returned ids %d, %d: want distinct and nonzero", a, b)
	}
	w.Window(a)[0] = 0xdead
	w.Window(b)[2] = 0xbeef
	if w.Window(a)[0] != 0xdead || w.Window(a)[2] != 0 {
		t.Fatalf("window %d corrupted: %v", a, w.Window(a))
	}
	if w.Window(b)[2] != 0xbeef || w.Window(b)[0] != 0 {
		t.Fatalf("window %d corrupted: %v", b, w.Window(b))
	}
	if w.Live() != 2 {
		t.Fatalf("Live = %d, want 2", w.Live())
	}
	// A freed window is the next one handed out.
	w.Free(a)
	if w.Live() != 1 {
		t.Fatalf("Live after Free = %d, want 1", w.Live())
	}
	if c := w.Alloc(); c != a {
		t.Fatalf("Alloc after Free(%d) = %d", a, c)
	}
	held := w.Cap()
	w.Reset()
	if w.Live() != 0 {
		t.Fatalf("Live after Reset = %d, want 0", w.Live())
	}
	if w.Alloc() != 1 || w.Cap() != held {
		t.Fatalf("Reset did not rewind the ids or dropped pages (cap %d, was %d)", w.Cap(), held)
	}
}

// Windows never move: a slice taken before later Allocs still aliases
// the window, and every window keeps its own contents.
func TestWindowsGrowthKeepsEarlierWindows(t *testing.T) {
	w := NewWindows[uint64](2)
	first := w.Window(w.Alloc())
	first[1] = 42
	ids := []int32{1}
	for i := 1; i < 100; i++ {
		id := w.Alloc()
		w.Window(id)[0] = uint64(i + 1)
		w.Window(id)[1] = uint64(i + 1000)
		ids = append(ids, id)
	}
	first[0] = 1
	if w.Window(1)[0] != 1 || w.Window(1)[1] != 42 {
		t.Fatalf("window 1 moved: %v", w.Window(1))
	}
	for i, id := range ids[1:] {
		got := w.Window(id)
		if got[0] != uint64(i+2) || got[1] != uint64(i+1001) {
			t.Fatalf("window %d lost its words: %v", id, got)
		}
	}
	if w.Cap() < 100 || w.Cap() > 2*100 {
		t.Fatalf("Cap = %d for 100 windows", w.Cap())
	}
}

// Property: windows handed out at the same time never overlap, across
// random Alloc/Free/Reset sequences, and steady-state reuse allocates
// nothing.
func TestWindowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewWindows[uint32](4)
	live := map[int32]uint32{}
	var ids []int32 // live ids, in a seed-determined order
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(20); {
		case r == 0:
			w.Reset()
			clear(live)
			ids = ids[:0]
		case r < 8 && len(ids) > 0:
			k := rng.Intn(len(ids))
			w.Free(ids[k])
			delete(live, ids[k])
			ids[k] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		default:
			id := w.Alloc()
			if _, dup := live[id]; dup || id == 0 {
				t.Fatalf("step %d: Alloc returned live or zero id %d", step, id)
			}
			ids = append(ids, id)
			v := uint32(step)
			for i := range w.Window(id) {
				w.Window(id)[i] = v
			}
			live[id] = v
		}
		if w.Live() != len(live) {
			t.Fatalf("step %d: Live = %d, want %d", step, w.Live(), len(live))
		}
		for id, v := range live {
			for _, x := range w.Window(id) {
				if x != v {
					t.Fatalf("step %d: window %d overwritten: %v, want %d", step, id, w.Window(id), v)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		a, b := w.Alloc(), w.Alloc()
		w.Free(a)
		w.Free(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Alloc/Free allocated %v times per run", allocs)
	}
}

func TestSizePool(t *testing.T) {
	var sp SizePool[[]int]
	if sp.Get(4) != nil {
		t.Fatal("empty pool returned a value")
	}
	v := make([]int, 4)
	sp.Put(4, &v)
	if got := sp.Get(8); got != nil {
		t.Fatalf("Get(8) returned a size-4 value: %v", *got)
	}
	// sync.Pool may drop entries at any time; when it keeps one, it must
	// come back under its own size only.
	if got := sp.Get(4); got != nil && len(*got) != 4 {
		t.Fatalf("Get(4) returned %d elements", len(*got))
	}
}

func TestI64EpochReset(t *testing.T) {
	s := NewI64(8, -1)
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Get(3) != -1 {
		t.Fatalf("fresh slot = %d, want default -1", s.Get(3))
	}
	s.Set(3, 1<<40)
	if s.Get(3) != 1<<40 {
		t.Fatalf("Get = %d", s.Get(3))
	}
	s.Reset()
	if s.Get(3) != -1 {
		t.Fatalf("slot survived Reset: %d", s.Get(3))
	}
	s.Set(3, 7)
	if s.Get(3) != 7 || s.Get(2) != -1 {
		t.Fatalf("post-reset values wrong: %d, %d", s.Get(3), s.Get(2))
	}
}

func TestI64WrapGuard(t *testing.T) {
	s := NewI64(2, 0)
	s.cur = ^uint32(0) // next Reset wraps the epoch counter
	s.Set(0, 42)
	s.Reset()
	if s.cur != 1 {
		t.Fatalf("wrapped epoch = %d, want 1", s.cur)
	}
	if s.Get(0) != 0 {
		t.Fatalf("stale tag aliased after wrap: %d", s.Get(0))
	}
}

func TestBitsCount(t *testing.T) {
	b := NewBits(200)
	if b.Count() != 0 {
		t.Fatalf("fresh Count = %d", b.Count())
	}
	for _, i := range []int{0, 63, 64, 130, 199} {
		b.Set(i)
	}
	b.Set(63) // duplicates must not double-count
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
	b.Set(17)
	if b.Count() != 1 {
		t.Fatalf("Count after reuse = %d, want 1", b.Count())
	}
}
