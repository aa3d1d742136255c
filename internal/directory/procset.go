package directory

import (
	"fmt"
	"math/bits"

	"specrt/internal/arena"
)

// MaxProcs is the largest machine the directory representations support.
// The binding limits are the 13-bit First field of the packed
// non-privatization word in package core and the int16 Owner field of
// Entry; 4096 comfortably clears both and covers the wide-scale tier.
const MaxProcs = 4096

// Mode selects how a Table represents each line's sharer set.
type Mode uint8

const (
	// FullMap keeps one presence bit per processor, the classic DASH
	// full bit vector: an inline 64-bit word for machines of at most 64
	// processors (zero indirection, the original representation), and
	// arena-backed multi-word windows above that. The represented set is
	// always exact.
	FullMap Mode = iota
	// Coarse is the limited-pointer/coarse-vector directory (DASH
	// within a cluster, Origin across them): up to four exact processor
	// pointers inline, overflowing to 63 group-presence bits covering
	// ceil(P/63) processors each. After overflow the represented set is
	// a superset of the true sharers — invalidations fan out to whole
	// groups — which trades invalidation traffic for a directory entry
	// that stays one word wide at any machine size.
	Coarse
)

func (m Mode) String() string {
	switch m {
	case FullMap:
		return "full-map"
	case Coarse:
		return "coarse"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ModeByName resolves a directory-mode flag value.
func ModeByName(name string) (Mode, error) {
	switch name {
	case "full-map", "fullmap", "full", "":
		return FullMap, nil
	case "coarse":
		return Coarse, nil
	}
	return FullMap, fmt.Errorf("unknown directory mode %q (full-map|coarse)", name)
}

// MarshalText makes Mode render as its name in JSON (reproducer files).
func (m Mode) MarshalText() ([]byte, error) {
	if m > Coarse {
		return nil, fmt.Errorf("directory: bad mode %d", uint8(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a directory-mode name.
func (m *Mode) UnmarshalText(b []byte) error {
	got, err := ModeByName(string(b))
	if err != nil {
		return err
	}
	*m = got
	return nil
}

// ProcSet is one directory entry's sharer set, packed into a single
// machine word the way a hardware directory entry would pack it. The
// word's interpretation belongs to the Store of the owning Table:
//
//   - FullMap at P <= 64: the word is the presence bitset itself
//     (bit p set = processor p holds a copy).
//   - FullMap at P > 64: the word holds the id of a ceil(P/64)-word
//     window in the store's allocator; 0 is the empty set. Mutations
//     write the window in place, so the handle is stable until the set
//     empties or is dropped, when the window goes back to the allocator.
//   - Coarse: bit 63 clear means up to four 15-bit "processor+1"
//     pointer slots, kept sorted ascending (0 = empty slot); bit 63 set
//     means the low 63 bits are group-presence bits.
//
// The zero ProcSet is the empty set in every mode. All operations go
// through the Store.
type ProcSet uint64

// Coarse-vector layout: four sorted 15-bit pointer slots, or — when the
// overflow bit is set — 63 group-presence bits.
const (
	coarseOverflow = ProcSet(1) << 63
	coarsePtrBits  = 15
	coarsePtrMask  = ProcSet(1)<<coarsePtrBits - 1
	coarsePtrSlots = 4
	coarseGroups   = 63
)

// Store interprets the ProcSet words of one Table. It is configured for
// a (mode, processor-count) pair at table construction and owns the
// windows of spilled full-map sets: a set that empties or is dropped
// (Remove, Directory.SetDirty, Directory.ClearToUncached) frees its
// window for the next spill, and Table.Reset frees all of them in O(1)
// along with the entries holding their handles.
type Store struct {
	mode  Mode
	procs int
	words int // window width of spilled full-map sets; 0 = inline
	group int // coarse mode: processors per overflow group bit
	slabs *arena.Windows[uint64]
}

// configure shapes a fresh store for a machine of procs processors.
func (st *Store) configure(mode Mode, procs int) {
	if procs < 1 || procs > MaxProcs {
		panic(fmt.Sprintf("directory: procs %d outside [1,%d]", procs, MaxProcs))
	}
	if mode > Coarse {
		panic(fmt.Sprintf("directory: unknown mode %d", uint8(mode)))
	}
	st.mode = mode
	st.procs = procs
	switch {
	case mode == Coarse:
		st.group = (procs + coarseGroups - 1) / coarseGroups
	case procs > 64:
		st.words = (procs + 63) / 64
		st.slabs = arena.NewWindows[uint64](st.words)
	}
}

// reset frees every spilled set (their handles die with the entries).
func (st *Store) reset() {
	if st.slabs != nil {
		st.slabs.Reset()
	}
}

// Mode returns the representation the store interprets.
func (st *Store) Mode() Mode { return st.mode }

// Procs returns the processor count the store was configured for.
func (st *Store) Procs() int { return st.procs }

// Add returns the set with processor p added.
func (st *Store) Add(s ProcSet, p int) ProcSet {
	switch {
	case st.mode == Coarse:
		return st.coarseAdd(s, p)
	case st.words == 0:
		return s | 1<<uint(p)
	default:
		if s == 0 {
			id := st.slabs.Alloc()
			w := st.slabs.Window(id)
			clear(w)
			w[p>>6] = 1 << uint(p&63)
			return ProcSet(id)
		}
		st.slab(s)[p>>6] |= 1 << uint(p&63)
		return s
	}
}

// Remove returns the set with processor p removed. In coarse overflow
// form with group size > 1 the removal is a conservative no-op: the
// group bit may cover other sharers, and keeping it preserves the
// superset guarantee. A spilled set that empties frees its window and
// becomes the zero set.
func (st *Store) Remove(s ProcSet, p int) ProcSet {
	switch {
	case st.mode == Coarse:
		return st.coarseRemove(s, p)
	case st.words == 0:
		return s &^ (1 << uint(p))
	default:
		if s == 0 {
			return 0
		}
		w := st.slab(s)
		if w[p>>6] &^= 1 << uint(p&63); w[p>>6] == 0 && st.Empty(s) {
			st.drop(s)
			return 0
		}
		return s
	}
}

// drop releases the set's storage: a spilled set's window goes back to
// the allocator. The caller replaces the word with the empty set.
func (st *Store) drop(s ProcSet) {
	if st.words != 0 && s != 0 {
		st.slabs.Free(int32(s))
	}
}

// slab returns the words of the spilled set s (s != 0).
func (st *Store) slab(s ProcSet) []uint64 { return st.slabs.Window(int32(s)) }

// Has reports whether p is in the set.
func (st *Store) Has(s ProcSet, p int) bool {
	switch {
	case st.mode == Coarse:
		return st.coarseHas(s, p)
	case st.words == 0:
		return s&(1<<uint(p)) != 0
	default:
		return s != 0 && st.slab(s)[p>>6]&(1<<uint(p&63)) != 0
	}
}

// Count returns the number of processors in the represented set (for a
// coarse overflow set, the size of the superset).
func (st *Store) Count(s ProcSet) int {
	switch {
	case st.mode == Coarse:
		return st.coarseCount(s)
	case st.words == 0:
		return bits.OnesCount64(uint64(s))
	default:
		if s == 0 {
			return 0
		}
		n := 0
		for _, w := range st.slab(s) {
			if w != 0 {
				n += bits.OnesCount64(w)
			}
		}
		return n
	}
}

// Only reports whether p is the single member of the set.
func (st *Store) Only(s ProcSet, p int) bool {
	switch {
	case st.mode == Coarse:
		return st.coarseHas(s, p) && st.coarseCount(s) == 1
	case st.words == 0:
		return s == 1<<uint(p)
	default:
		if s == 0 {
			return false
		}
		for wi, w := range st.slab(s) {
			if wi == p>>6 {
				if w != 1<<uint(p&63) {
					return false
				}
			} else if w != 0 {
				return false
			}
		}
		return true
	}
}

// Empty reports whether the set has no members.
func (st *Store) Empty(s ProcSet) bool {
	switch {
	case st.mode == Coarse:
		return s&^coarseOverflow == 0
	case st.words == 0:
		return s == 0
	default:
		if s == 0 {
			return true
		}
		for _, w := range st.slab(s) {
			if w != 0 {
				return false
			}
		}
		return true
	}
}

// ForEach calls fn for each processor in the represented set, in
// increasing ID order. Multi-word sets skip empty words, so fan-out is
// O(populated words), not O(P).
func (st *Store) ForEach(s ProcSet, fn func(p int)) {
	switch {
	case st.mode == Coarse:
		st.coarseForEach(s, fn)
	case st.words == 0:
		for v := uint64(s); v != 0; {
			p := bits.TrailingZeros64(v)
			fn(p)
			v &^= 1 << uint(p)
		}
	default:
		if s == 0 {
			return
		}
		for wi, w := range st.slab(s) {
			for w != 0 {
				fn(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}

// Members collects the represented set as a sorted slice (tests and
// differential validation; not for hot paths).
func (st *Store) Members(s ProcSet) []int {
	var out []int
	st.ForEach(s, func(p int) { out = append(out, p) })
	return out
}

// IsExact reports whether the word represents the true sharer set
// exactly: always in FullMap, and in Coarse until overflow widens the
// set to groups of more than one processor.
func (st *Store) IsExact(s ProcSet) bool {
	if st.mode != Coarse {
		return true
	}
	return s&coarseOverflow == 0 || st.group == 1
}

// coarsePtr returns pointer slot i of s (processor+1 encoding; 0 =
// empty slot).
func coarsePtr(s ProcSet, i int) int {
	return int(s >> (uint(i) * coarsePtrBits) & coarsePtrMask)
}

// coarseAdd inserts p, keeping the pointer slots sorted; a fifth sharer
// converts the entry to overflow group bits.
func (st *Store) coarseAdd(s ProcSet, p int) ProcSet {
	if s&coarseOverflow != 0 {
		return s | 1<<uint(p/st.group)
	}
	var ps [coarsePtrSlots]int
	n := 0
	for i := 0; i < coarsePtrSlots; i++ {
		v := coarsePtr(s, i)
		if v == 0 {
			break
		}
		if v == p+1 {
			return s
		}
		ps[n] = v
		n++
	}
	if n < coarsePtrSlots {
		// Insert p+1 into the sorted slots.
		i := n
		for i > 0 && ps[i-1] > p+1 {
			ps[i] = ps[i-1]
			i--
		}
		ps[i] = p + 1
		var out ProcSet
		for i := 0; i <= n; i++ {
			out |= ProcSet(ps[i]) << (uint(i) * coarsePtrBits)
		}
		return out
	}
	// Pointer overflow: convert the four pointers plus p to group bits.
	out := coarseOverflow | 1<<uint(p/st.group)
	for i := 0; i < n; i++ {
		out |= 1 << uint((ps[i]-1)/st.group)
	}
	return out
}

// coarseRemove drops p from the pointer slots, or — in overflow form —
// clears its group bit only when groups are exact (one processor each).
func (st *Store) coarseRemove(s ProcSet, p int) ProcSet {
	if s&coarseOverflow != 0 {
		if st.group == 1 {
			return s &^ (1 << uint(p))
		}
		return s
	}
	var out ProcSet
	slot := 0
	for i := 0; i < coarsePtrSlots; i++ {
		v := coarsePtr(s, i)
		if v == 0 {
			break
		}
		if v == p+1 {
			continue
		}
		out |= ProcSet(v) << (uint(slot) * coarsePtrBits)
		slot++
	}
	return out
}

func (st *Store) coarseHas(s ProcSet, p int) bool {
	if s&coarseOverflow != 0 {
		return s&(1<<uint(p/st.group)) != 0
	}
	for i := 0; i < coarsePtrSlots; i++ {
		if coarsePtr(s, i) == p+1 {
			return true
		}
	}
	return false
}

func (st *Store) coarseCount(s ProcSet) int {
	if s&coarseOverflow == 0 {
		n := 0
		for i := 0; i < coarsePtrSlots; i++ {
			if coarsePtr(s, i) != 0 {
				n++
			}
		}
		return n
	}
	n := 0
	for v := uint64(s &^ coarseOverflow); v != 0; {
		g := bits.TrailingZeros64(v)
		span := st.procs - g*st.group
		if span > st.group {
			span = st.group
		}
		n += span
		v &^= 1 << uint(g)
	}
	return n
}

func (st *Store) coarseForEach(s ProcSet, fn func(p int)) {
	if s&coarseOverflow == 0 {
		for i := 0; i < coarsePtrSlots; i++ {
			v := coarsePtr(s, i)
			if v == 0 {
				return
			}
			fn(v - 1)
		}
		return
	}
	for v := uint64(s &^ coarseOverflow); v != 0; {
		g := bits.TrailingZeros64(v)
		hi := (g + 1) * st.group
		if hi > st.procs {
			hi = st.procs
		}
		for p := g * st.group; p < hi; p++ {
			fn(p)
		}
		v &^= 1 << uint(g)
	}
}
