package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	s := NewSpace(4)
	r := s.Alloc("A", 100, 8, RoundRobin, 0)
	if r.Bytes != 800 {
		t.Fatalf("Bytes = %d, want 800", r.Bytes)
	}
	if r.Base%PageSize != 0 {
		t.Fatalf("Base %#x not page aligned", r.Base)
	}
	if r.Base == 0 {
		t.Fatal("Base must not be 0 (reserved sentinel page)")
	}
}

func TestAllocNonOverlapping(t *testing.T) {
	s := NewSpace(2)
	a := s.Alloc("A", 1000, 4, RoundRobin, 0)
	b := s.Alloc("B", 1000, 8, Local, 1)
	if a.End() > b.Base {
		t.Fatalf("regions overlap: A ends %#x, B starts %#x", a.End(), b.Base)
	}
}

func TestElemAddrRoundTrip(t *testing.T) {
	s := NewSpace(4)
	r := s.Alloc("A", 257, 16, RoundRobin, 0)
	for _, i := range []int{0, 1, 128, 256} {
		a := r.ElemAddr(i)
		if got := r.ElemIndex(a); got != i {
			t.Fatalf("ElemIndex(ElemAddr(%d)) = %d", i, got)
		}
		// Interior byte of the element maps back too.
		if got := r.ElemIndex(a + 3); got != i {
			t.Fatalf("interior byte of elem %d maps to %d", i, got)
		}
	}
}

func TestElemAddrOutOfRangePanics(t *testing.T) {
	s := NewSpace(1)
	r := s.Alloc("A", 10, 4, RoundRobin, 0)
	for _, i := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ElemAddr(%d) did not panic", i)
				}
			}()
			r.ElemAddr(i)
		}()
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	s := NewSpace(4)
	r := s.Alloc("A", 8*PageSize/4, 4, RoundRobin, 0) // 8 pages
	seen := map[int]int{}
	for p := 0; p < 8; p++ {
		n := s.HomeNode(r.Base + Addr(p*PageSize))
		seen[n]++
	}
	for n := 0; n < 4; n++ {
		if seen[n] != 2 {
			t.Fatalf("node %d got %d pages, want 2 (map %v)", n, seen[n], seen)
		}
	}
	// Consecutive pages land on consecutive nodes.
	n0 := s.HomeNode(r.Base)
	n1 := s.HomeNode(r.Base + PageSize)
	if (n0+1)%4 != n1 {
		t.Fatalf("pages not interleaved consecutively: %d then %d", n0, n1)
	}
}

func TestLocalPlacement(t *testing.T) {
	s := NewSpace(4)
	r := s.Alloc("priv", 10*PageSize/8, 8, Local, 3)
	for p := 0; p < 10; p++ {
		if n := s.HomeNode(r.Base + Addr(p*PageSize)); n != 3 {
			t.Fatalf("page %d homed at node %d, want 3", p, n)
		}
	}
}

func TestFindRegion(t *testing.T) {
	s := NewSpace(2)
	a := s.Alloc("A", 100, 4, RoundRobin, 0)
	b := s.Alloc("B", 100, 4, RoundRobin, 0)
	if r, ok := s.FindRegion(a.Base + 50); !ok || r.Name != "A" {
		t.Fatalf("FindRegion in A = %v/%v", r.Name, ok)
	}
	if r, ok := s.FindRegion(b.Base); !ok || r.Name != "B" {
		t.Fatalf("FindRegion in B = %v/%v", r.Name, ok)
	}
	if _, ok := s.FindRegion(0); ok {
		t.Fatal("FindRegion(0) should miss (reserved page)")
	}
	if _, ok := s.FindRegion(b.End() + PageSize); ok {
		t.Fatal("FindRegion past end should miss")
	}
}

func TestHomeNodeUnallocated(t *testing.T) {
	s := NewSpace(3)
	// Must not panic, and must be stable.
	a := Addr(123456 * PageSize)
	if s.HomeNode(a) != s.HomeNode(a) {
		t.Fatal("HomeNode unstable for unallocated address")
	}
	if n := s.HomeNode(a); n < 0 || n >= 3 {
		t.Fatalf("HomeNode out of range: %d", n)
	}
}

func TestPlacementString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Local.String() != "local" {
		t.Fatal("Placement.String mismatch")
	}
	if Placement(9).String() == "" {
		t.Fatal("unknown placement should still stringify")
	}
}

// Property: every address of every region maps to a home node in range and
// page-aligned addresses within one page share a home.
func TestPropertyHomeNodeInRange(t *testing.T) {
	f := func(nodesRaw uint8, elemsRaw uint16, elemSel uint8) bool {
		nodes := int(nodesRaw%16) + 1
		elems := int(elemsRaw%5000) + 1
		sizes := []int{4, 8, 16}
		es := sizes[int(elemSel)%len(sizes)]
		s := NewSpace(nodes)
		r := s.Alloc("A", elems, es, RoundRobin, 0)
		for i := 0; i < elems; i += 1 + elems/64 {
			a := r.ElemAddr(i)
			n := s.HomeNode(a)
			if n < 0 || n >= nodes {
				return false
			}
			// Same page ⇒ same home.
			pageBase := a / PageSize * PageSize
			if s.HomeNode(pageBase) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionsAndTotalBytes(t *testing.T) {
	s := NewSpace(2)
	a := s.Alloc("A", 100, 4, RoundRobin, 0)
	b := s.Alloc("B", 10, 8, Local, 1)
	rs := s.Regions()
	if len(rs) != 2 || rs[0].Name != "A" || rs[1].Name != "B" {
		t.Fatalf("Regions = %v", rs)
	}
	if s.TotalBytes() <= uint64(a.Bytes)+uint64(b.Bytes) {
		t.Fatalf("TotalBytes = %d too small", s.TotalBytes())
	}
}

func TestNewSpaceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpace(0) did not panic")
		}
	}()
	NewSpace(0)
}

func TestAllocValidation(t *testing.T) {
	s := NewSpace(2)
	for _, bad := range []func(){
		func() { s.Alloc("x", 0, 4, RoundRobin, 0) },
		func() { s.Alloc("x", 4, 0, RoundRobin, 0) },
		func() { s.Alloc("x", 4, 4, Local, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad alloc did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestElemIndexOutsidePanics(t *testing.T) {
	s := NewSpace(1)
	r := s.Alloc("A", 4, 4, RoundRobin, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("ElemIndex outside region did not panic")
		}
	}()
	r.ElemIndex(r.End() + 100)
}

// A measuring space lays regions out exactly like a real one but records
// none of them.
func TestMeasureLaysOutLikeSpace(t *testing.T) {
	sp, measure := NewSpace(4), NewMeasure(4)
	for i, a := range []struct{ elems, size int }{{100, 8}, {5000, 4}, {1, 16}} {
		r := sp.Alloc("A", a.elems, a.size, Local, i)
		m := measure.Alloc("", a.elems, a.size, Local, i)
		if m.Base != r.Base || m.Bytes != r.Bytes {
			t.Fatalf("alloc %d: measured region at %#x (%d B), real at %#x (%d B)", i, m.Base, m.Bytes, r.Base, r.Bytes)
		}
	}
	if measure.TotalBytes() != sp.TotalBytes() {
		t.Fatalf("TotalBytes measured %d, real %d", measure.TotalBytes(), sp.TotalBytes())
	}
	if n := len(measure.Regions()); n != 0 {
		t.Fatalf("measuring space recorded %d regions", n)
	}
	if _, ok := measure.FindRegion(sp.Regions()[0].Base); ok {
		t.Fatal("measuring space found a region")
	}
}
