// Package arena provides preallocated, epoch-tagged metadata tables.
//
// The simulator knows every array's element range and the machine's line
// address space at session setup, so speculation metadata never needs a
// hash map: it lives in flat slices indexed by dense element or line
// index. What it does need is a cheap way to wipe that metadata between
// iterations of the experiment loop (Arm/Disarm cycles, ablation cells,
// fuzz replays). The types here make Reset O(1) by tagging each slot
// with the epoch that last wrote it: a slot whose tag differs from the
// current epoch reads as the default value, and Reset just increments
// the epoch. No reallocation, no O(n) clear on the hot path.
package arena

import (
	"math/bits"
	"sync"
)

// I32 is a flat int32 table with an epoch-tagged O(1) Reset. Slots not
// written since the last Reset read as the default value.
type I32 struct {
	v   []int32
	tag []uint32
	cur uint32
	def int32
}

// NewI32 returns a table of n slots, all reading as def.
func NewI32(n int, def int32) *I32 {
	return &I32{v: make([]int32, n), tag: make([]uint32, n), cur: 1, def: def}
}

// Len returns the number of slots.
func (s *I32) Len() int { return len(s.v) }

// Get returns slot i, or the default if it was not set this epoch.
func (s *I32) Get(i int) int32 {
	if s.tag[i] != s.cur {
		return s.def
	}
	return s.v[i]
}

// Set writes slot i for the current epoch.
func (s *I32) Set(i int, x int32) {
	s.v[i] = x
	s.tag[i] = s.cur
}

// Reset invalidates every slot in O(1) by advancing the epoch.
func (s *I32) Reset() {
	s.cur++
	if s.cur == 0 { // epoch counter wrapped: stale tags could alias
		clear(s.tag)
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

// ForEachRange calls fn for every set bit in [lo, hi), in increasing
// order. The scan is word-wise, so sparse ranges cost little.
func (b *Bits) ForEachRange(lo, hi int, fn func(i int)) {
	if lo < 0 {
		lo = 0
	}
	if max := len(b.w) * 64; hi > max {
		hi = max
	}
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := b.word(wi)
		if w == 0 {
			continue
		}
		base := wi << 6
		if base < lo {
			w &^= (1 << uint(lo-base)) - 1
		}
		if base+64 > hi {
			w &= (1 << uint(hi-base)) - 1
		}
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1
		}
	}
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
