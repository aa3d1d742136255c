// Package arena provides preallocated, epoch-tagged metadata tables.
//
// The simulator knows every array's element range and the machine's line
// address space at session setup, so speculation metadata never needs a
// hash map: it lives in flat slices indexed by dense element or line
// index. What it does need is a cheap way to wipe that metadata between
// iterations of the experiment loop (Arm/Disarm cycles, ablation cells,
// fuzz replays). The types here make Reset O(1) by tagging each unit of
// storage (an I32 page, a Bits word) with the epoch that last wrote it:
// a unit whose tag differs from the current epoch reads as the default
// value, and Reset just increments the epoch. No reallocation, no O(n)
// clear on the hot path.
package arena

import (
	"math/bits"
	"sync"
)

// I32 is an int32 table with an epoch-tagged O(1) Reset, paged by line:
// a page is 16 slots, one 64-byte line of int32. A page takes storage at
// its first Set in an epoch, appended to one store, and a page not set
// since the last Reset reads as the default value. A table whose writes
// touch a few lines thus holds a page header per 16 slots (0.5 B per
// slot) plus those lines' storage, and a fully written one 4.5 B per
// slot. Reset truncates the store, keeping its capacity for the next
// epoch.
type I32 struct {
	pages []page
	store []int32
	fill  [pageSlots]int32 // a fresh page: every slot the default
	n     int
	cur   uint32
	def   int32
}

// pageSlots is the number of slots in an I32 page.
const pageSlots = 16

// page is an I32 page header: the epoch that last gave the page storage,
// and the index of that storage in the store, in pages.
type page struct {
	epoch uint32
	at    uint32
}

// NewI32 returns a table of n slots, all reading as def.
func NewI32(n int, def int32) *I32 {
	// The first page's storage is reserved here: a table written at one
	// line never allocates after construction.
	s := &I32{pages: make([]page, (n+pageSlots-1)/pageSlots), store: make([]int32, 0, pageSlots), n: n, cur: 1, def: def}
	for i := range s.fill {
		s.fill[i] = def
	}
	return s
}

// Len returns the number of slots.
func (s *I32) Len() int { return s.n }

// Get returns slot i, or the default if its page was not set this epoch.
func (s *I32) Get(i int) int32 {
	if uint(i) >= uint(s.n) {
		panic("arena: I32 index out of range")
	}
	pg := s.pages[uint(i)/pageSlots]
	if pg.epoch != s.cur {
		return s.def
	}
	return s.store[uint(pg.at)*pageSlots+uint(i)%pageSlots]
}

// Set writes slot i for the current epoch, giving its page storage if
// the page has none this epoch.
func (s *I32) Set(i int, x int32) {
	if uint(i) >= uint(s.n) {
		panic("arena: I32 index out of range")
	}
	pg := &s.pages[uint(i)/pageSlots]
	if pg.epoch != s.cur {
		pg.epoch, pg.at = s.cur, uint32(len(s.store)/pageSlots)
		s.store = append(s.store, s.fill[:]...)
	}
	s.store[uint(pg.at)*pageSlots+uint(i)%pageSlots] = x
}

// Reset invalidates every slot in O(1) by advancing the epoch.
func (s *I32) Reset() {
	s.store = s.store[:0]
	s.cur++
	if s.cur == 0 { // epoch counter wrapped: stale headers could alias
		clear(s.pages)
		s.cur = 1
	}
}

// Bits is a flat bitset with an epoch-tagged O(1) Reset. The epoch tag
// is kept per 64-bit word, so Set lazily zeroes at most one word.
type Bits struct {
	w   []uint64
	tag []uint32
	cur uint32
}

// NewBits returns a bitset of n bits, all clear.
func NewBits(n int) *Bits {
	words := (n + 63) / 64
	return &Bits{w: make([]uint64, words), tag: make([]uint32, words), cur: 1}
}

// Get reports whether bit i is set in the current epoch.
func (b *Bits) Get(i int) bool {
	wi := i >> 6
	return b.tag[wi] == b.cur && b.w[wi]&(1<<uint(i&63)) != 0
}

// Set sets bit i for the current epoch.
func (b *Bits) Set(i int) {
	wi := i >> 6
	if b.tag[wi] != b.cur {
		b.tag[wi] = b.cur
		b.w[wi] = 0
	}
	b.w[wi] |= 1 << uint(i&63)
}

// word returns word wi's live value (zero if stale this epoch).
func (b *Bits) word(wi int) uint64 {
	if b.tag[wi] != b.cur {
		return 0
	}
	return b.w[wi]
}

// Next returns the first set bit in [i, hi), or hi if there is none. The
// scan is word-wise, so sparse ranges cost little; a walk over the set
// bits calls it again from the bit after each one it returns.
func (b *Bits) Next(i, hi int) int {
	if i < 0 {
		i = 0
	}
	if max := len(b.w) * 64; hi > max {
		hi = max
	}
	for wi := i >> 6; wi<<6 < hi; wi++ {
		w := b.word(wi)
		if base := wi << 6; base < i {
			w &^= (1 << uint(i-base)) - 1
		}
		if w != 0 {
			return min(wi<<6+bits.TrailingZeros64(w), hi)
		}
	}
	return hi
}

// Count returns the number of set bits in the current epoch. The scan
// is word-wise popcount over live words only.
func (b *Bits) Count() int {
	n := 0
	for wi := range b.w {
		n += bits.OnesCount64(b.word(wi))
	}
	return n
}

// Reset clears every bit in O(1) by advancing the epoch.
func (b *Bits) Reset() {
	b.cur++
	if b.cur == 0 {
		clear(b.tag)
		b.cur = 1
	}
}

// Windows is an allocator of fixed-width windows of T: per-line metadata
// that only some lines carry (a cache line's access bits, a wide
// machine's spilled sharer set) takes a window when it first needs one
// and hands it back when it drops it, instead of every line owning a
// slot up front. Storage is paged: page k holds 1<<k windows, so a
// window never moves once handed out (slices into it stay valid across
// later Allocs) and a holder of a few windows keeps a few windows of
// storage. Ids start at 1, so 0 can mean "no window" to callers. A
// Windows must not be copied: its page table starts in its own small
// array, so a holder of up to three windows allocates only their pages.
type Windows[T any] struct {
	width int
	pages [][]T   // page k holds ids [1<<k, 2<<k)
	small [2][]T  // pages' backing array until a third page is needed
	next  int32   // ids [1, next] have been handed out since the last Reset
	free  []int32 // ids returned by Free since the last Reset, reused LIFO
}

// NewWindows returns an allocator of windows of width elements each; it
// holds no storage until the first Alloc.
func NewWindows[T any](width int) *Windows[T] {
	if width <= 0 {
		panic("arena: window width must be positive")
	}
	w := &Windows[T]{width: width}
	w.pages = w.small[:0]
	return w
}

// Width returns the window width in elements.
func (w *Windows[T]) Width() int { return w.width }

// Live returns the number of windows handed out and not yet freed.
func (w *Windows[T]) Live() int { return int(w.next) - len(w.free) }

// Cap returns the number of windows the allocated pages hold.
func (w *Windows[T]) Cap() int { return 1<<len(w.pages) - 1 }

// Alloc returns the id of a window (never 0). A recycled window keeps
// whatever it held: callers overwrite or clear it.
func (w *Windows[T]) Alloc() int32 {
	if n := len(w.free); n > 0 {
		id := w.free[n-1]
		w.free = w.free[:n-1]
		return id
	}
	w.next++
	if k := bits.Len32(uint32(w.next)) - 1; k == len(w.pages) {
		w.pages = append(w.pages, make([]T, w.width<<k))
	}
	return w.next
}

// Window returns window id's elements. The slice aliases page storage
// that never moves, so it stays valid until the window is freed and
// handed out again.
func (w *Windows[T]) Window(id int32) []T {
	k := bits.Len32(uint32(id)) - 1
	lo := int(id-1<<k) * w.width
	return w.pages[k][lo : lo+w.width : lo+w.width]
}

// Free returns window id for reuse by a later Alloc.
func (w *Windows[T]) Free(id int32) { w.free = append(w.free, id) }

// Reset frees every window in O(1); the pages are kept for reuse.
func (w *Windows[T]) Reset() {
	w.next = 0
	w.free = w.free[:0]
}

// SizePool is a set of sync.Pools of *T keyed by a size (an element
// count, a set count), for storage whose shape is fixed by that size.
// The zero value is ready to use. A mutex-guarded plain map is used
// rather than sync.Map so the int key is not boxed on every lookup.
type SizePool[T any] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

func (sp *SizePool[T]) pool(size int) *sync.Pool {
	sp.mu.Lock()
	p := sp.pools[size]
	if p == nil {
		if sp.pools == nil {
			sp.pools = map[int]*sync.Pool{}
		}
		p = &sync.Pool{}
		sp.pools[size] = p
	}
	sp.mu.Unlock()
	return p
}

// Get returns a pooled value of the given size, or nil if none is free.
func (sp *SizePool[T]) Get(size int) *T {
	if v := sp.pool(size).Get(); v != nil {
		return v.(*T)
	}
	return nil
}

// Put hands v, of the given size, back to the pool.
func (sp *SizePool[T]) Put(size int, v *T) { sp.pool(size).Put(v) }
