// Package mem models the physical address space of the simulated CC-NUMA
// machine: allocation of named array regions and the placement of their
// pages across the nodes' memory modules.
//
// The paper (§5.2) allocates the pages of workload data round-robin across
// the memory modules; serial runs instead allocate everything local to the
// executing processor. Both policies are supported.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a physical byte address.
type Addr uint64

// PageSize is the placement granularity. 4 KB, a typical page.
const PageSize = 4096

// Placement decides which node a page lives on.
type Placement uint8

const (
	// RoundRobin interleaves pages across nodes (parallel runs).
	RoundRobin Placement = iota
	// Local places all pages of the region on a fixed node (serial runs,
	// private per-processor data, hotspot studies).
	Local
	// Blocked splits the region's pages into one contiguous block per
	// node, node 0 first — the placement a first-touch allocator
	// produces when each processor initializes its contiguous chunk of
	// the array before the loop.
	Blocked
)

func (p Placement) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Local:
		return "local"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("Placement(%d)", uint8(p))
}

// PlacementByName resolves a placement flag value.
func PlacementByName(name string) (Placement, error) {
	switch name {
	case "round-robin", "rr", "interleaved", "":
		return RoundRobin, nil
	case "blocked", "block", "first-touch":
		return Blocked, nil
	case "local", "hotspot":
		return Local, nil
	}
	return RoundRobin, fmt.Errorf("unknown placement %q (round-robin|blocked|local)", name)
}

// Region is a contiguous allocation holding an array.
type Region struct {
	Name     string
	Base     Addr
	Bytes    uint64
	ElemSize int // bytes per element: 4, 8 or 16
	Elems    int

	place Placement
	node  int // home node when place == Local
}

// Contains reports whether a lies inside the region.
func (r Region) Contains(a Addr) bool {
	return a >= r.Base && a < r.Base+Addr(r.Bytes)
}

// ElemAddr returns the address of element i.
func (r Region) ElemAddr(i int) Addr {
	if i < 0 || i >= r.Elems {
		panic(fmt.Sprintf("mem: element %d out of range [0,%d) in %s", i, r.Elems, r.Name))
	}
	return r.Base + Addr(i*r.ElemSize)
}

// ElemIndex returns the element index containing address a.
func (r Region) ElemIndex(a Addr) int {
	if !r.Contains(a) {
		panic(fmt.Sprintf("mem: addr %#x outside region %s", a, r.Name))
	}
	return int(a-r.Base) / r.ElemSize
}

// End returns one past the last byte of the region.
func (r Region) End() Addr { return r.Base + Addr(r.Bytes) }

// Space is the machine's physical address space.
type Space struct {
	Nodes    int
	next     Addr
	regions  []Region
	rrNext   int  // next node for round-robin page placement continuity
	last     int  // region index of the last successful lookup (memo)
	nodeMask int  // Nodes-1 when Nodes is a power of two, else -1
	measure  bool // NewMeasure: Alloc records no regions
}

// NewSpace creates an address space for a machine with n nodes.
func NewSpace(n int) *Space {
	if n <= 0 {
		panic("mem: need at least one node")
	}
	mask := -1
	if n&(n-1) == 0 {
		mask = n - 1
	}
	// Start allocation above page 0 so that Addr 0 is never a valid
	// element address (useful as a sentinel).
	return &Space{Nodes: n, next: PageSize, nodeMask: mask}
}

// NewMeasure creates an address space that only measures a layout:
// Alloc returns each region and advances TotalBytes exactly as on a
// NewSpace space, but records none, so lookups find nothing.
func NewMeasure(n int) *Space {
	s := NewSpace(n)
	s.measure = true
	return s
}

// Alloc carves a region of elems elements of elemSize bytes with the given
// placement. For Local placement, node selects the home node. Regions are
// page-aligned so that placement is exact.
func (s *Space) Alloc(name string, elems, elemSize int, place Placement, node int) Region {
	if elems <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("mem: bad alloc %q elems=%d elemSize=%d", name, elems, elemSize))
	}
	if place == Local && (node < 0 || node >= s.Nodes) {
		panic(fmt.Sprintf("mem: bad local node %d", node))
	}
	bytes := uint64(elems) * uint64(elemSize)
	// Round the region up to whole pages.
	pages := (bytes + PageSize - 1) / PageSize
	r := Region{
		Name:     name,
		Base:     s.next,
		Bytes:    bytes,
		ElemSize: elemSize,
		Elems:    elems,
		place:    place,
		node:     node,
	}
	s.next += Addr(pages * PageSize)
	if !s.measure {
		s.regions = append(s.regions, r)
	}
	return r
}

// HomeNode returns the node whose memory module holds address a.
func (s *Space) HomeNode(a Addr) int {
	r := s.findRegion(a)
	if r == nil {
		// Unallocated addresses (e.g. lock words modelled ad hoc)
		// interleave by page.
		return s.pageNode(uint64(a) / PageSize)
	}
	if r.place == Local {
		return r.node
	}
	pageInRegion := uint64(a-r.Base) / PageSize
	if r.place == Blocked {
		pages := (r.Bytes + PageSize - 1) / PageSize
		node := int(pageInRegion * uint64(s.Nodes) / pages)
		if node >= s.Nodes {
			node = s.Nodes - 1
		}
		return node
	}
	return s.pageNode(pageInRegion)
}

// pageNode interleaves a page number across the nodes; the modulo is a
// mask for power-of-two node counts (every §5 configuration), since this
// sits on the per-access home-lookup path.
func (s *Space) pageNode(page uint64) int {
	if s.nodeMask >= 0 {
		return int(page) & s.nodeMask
	}
	return int(page % uint64(s.Nodes))
}

// FindRegion returns the region containing a, if any.
func (s *Space) FindRegion(a Addr) (Region, bool) {
	if r := s.findRegion(a); r != nil {
		return *r, true
	}
	return Region{}, false
}

// findRegion is FindRegion without the value copy, for the hot home-node
// path. The returned pointer is invalidated by the next Alloc.
func (s *Space) findRegion(a Addr) *Region {
	// Accesses are heavily region-local, so try the last hit before the
	// binary search (memo only affects speed, never the result).
	if i := s.last; i < len(s.regions) && s.regions[i].Contains(a) {
		return &s.regions[i]
	}
	// Regions are allocated in increasing address order; binary search.
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].End() > a
	})
	if i < len(s.regions) && s.regions[i].Contains(a) {
		s.last = i
		return &s.regions[i]
	}
	return nil
}

// Regions returns all allocated regions in address order.
func (s *Space) Regions() []Region { return s.regions }

// TotalBytes returns the highest allocated address (size of the used
// address space).
func (s *Space) TotalBytes() uint64 { return uint64(s.next) }
