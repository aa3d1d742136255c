// Package cache models the direct-mapped primary and secondary caches of
// the simulated machine, including the per-line Access Bit Arrays the
// hardware scheme adds (Figure 10-(a) and (b)).
//
// Caches track tags and coherence state only; the simulation is
// dependence-level, so no data values are stored. Each line carries one
// access-bit word per 4 bytes, which travels with the line on fills and
// writebacks exactly as in the paper.
package cache

import (
	"fmt"
	"math/bits"

	"specrt/internal/abits"
	"specrt/internal/arena"
	"specrt/internal/mem"
)

// State is the coherence state of a cached line.
type State uint8

const (
	Invalid State = iota
	Clean         // shared, consistent with memory
	Dirty         // exclusive, modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "INVALID"
	case Clean:
		return "CLEAN"
	case Dirty:
		return "DIRTY"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config describes a direct-mapped cache.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size: a power of two, at least one word, dividing SizeBytes
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	if c.LineBytes%abits.WordBytes != 0 {
		return fmt.Errorf("cache: line %d not a multiple of word size", c.LineBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line %d not a power of two", c.LineBytes)
	}
	return nil
}

// MaxAddr returns the first address a cache of this geometry cannot
// hold: MaxLines lines of LineBytes each (64 GB for 64-byte lines).
func (c Config) MaxAddr() uint64 { return MaxLines * uint64(c.LineBytes) }

// Frame is one stored cache frame, 8 pointer-free bytes, so a frame
// array is never scanned by the garbage collector. tag packs the number
// of the resident line (its address divided by the line size) above its
// State in the two low bits, so an Invalid frame is all zero and a line
// number must be below MaxLines; read the line's address with Cache.Tag.
// win is the id of the frame's access-bit window in the cache's
// allocator, or 0 while the line carries no bits (read them with
// Cache.Bits).
type Frame struct {
	tag uint32
	win int32
}

// MaxLines bounds the line numbers a Frame's tag word holds above its
// state bits; Config.MaxAddr turns it into an address bound.
const MaxLines = 1 << (32 - stateBits)

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// State returns the frame's coherence state.
func (f *Frame) State() State { return State(f.tag & stateMask) }

// SetState changes a valid frame's state to st, Clean or Dirty; a line
// leaves the cache only through Invalidate, FlushAll or eviction.
func (f *Frame) SetState(st State) { f.tag = f.tag&^stateMask | uint32(st) }

// holds reports whether the frame holds line number n in a valid state,
// with one compare: the packed word XOR the shifted line number leaves
// exactly the state bits when the lines match, and Invalid (0) wraps to
// the largest value. A line number of MaxLines or more leaves high bits
// set and never matches.
func (f *Frame) holds(n uint64) bool {
	return (uint64(f.tag)^n<<stateBits)-1 < uint64(Dirty)
}

// Line is a frame's contents handed out by value: an evicted victim, the
// prior contents returned by Invalidate and Downgrade, and the frames
// passed to FlushAll and ForEach callbacks. Bits (nil for a plain line)
// aliases cache-owned storage that stays valid until the cache next
// installs or writes bits; consumers copy what they keep.
type Line struct {
	Tag   mem.Addr
	State State
	Bits  []abits.Word // one per 4-byte word of the line
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
	Flushes    uint64
}

// Cache is a direct-mapped cache. Only lines of arrays under test carry
// access bits (§4.1), so a frame takes a window of wpl words from the
// cache's allocator when its line first needs bits and returns it when
// the line goes or is reinstalled without bits; a cache that never sees
// such a line holds no bit storage. A separate scratch window carries an
// evicted victim's bits while its frame is being overwritten.
//
// A cache's frames live in a block it shares set-major with the other
// caches built by the same NewBlock call (see block), so its frame for
// set s is frames[s*stride]. Its occupancy bitmap, windows, scratch and
// Stats are its own. Blocks are recycled across machines via a pool, so
// steady-state simulation does no per-line allocation.
type Cache struct {
	cfg     Config
	sets    int
	frames  []Frame // the block's frames from this cache's slot on
	stride  int     // the block's width: caches sharing it
	wpl     int     // access-bit words per line
	wins    *arena.Windows[abits.Word]
	scratch []abits.Word
	Stats   Stats

	// lineShift turns an address into its line number. pow2/setMask
	// strength-reduce the set index when the set count is a power of two
	// (the §5.1 geometries always are): the generic modulo by a
	// non-constant divisor showed up as one of the hottest instructions
	// in the whole simulator, on every Lookup.
	pow2      bool
	lineShift uint64
	setMask   uint64

	// occ has one bit per set, set exactly when the frame holds a valid
	// line. Whole-cache walks visit only the set bits, in ascending set
	// order, so observable effects (writeback callbacks, bit resets) are
	// identical to a full frame scan without touching every frame of a
	// mostly empty cache between executions.
	occ []uint64
	blk *block // the block frames, occ and windows came from
}

// BlockWidth is the most caches that share one frame block. A machine
// takes one L1 and one L2 block per BlockWidth processors, so in a
// lockstep round, or a write's invalidation fan-out visiting sharers in
// processor order, adjacent processors' frames for one set share host
// cache lines and pages (EXPERIMENTS "Set-major frame blocks").
const BlockWidth = 64

// block is the frame storage of width caches of one geometry, stored
// set-major: slot j's frame for set s is frames[s*width+j]. Each slot
// keeps its own occupancy bitmap, access-bit windows and scratch window,
// pooled with the frames so a cache's window pages travel with its block.
type block struct {
	frames []Frame
	slots  []slot
	wpl    int // the slots' window width
	live   int // caches built on the block and not yet released
}

// slot is one cache's own bookkeeping within a block.
type slot struct {
	occ     []uint64
	wins    *arena.Windows[abits.Word]
	scratch []abits.Word
}

// blockPool recycles blocks between machines, keyed by shape (set count
// and width). Kept because it pays: without it perfbench's wide passes
// ran 20% slower in the median (EXPERIMENTS "Set-major frame blocks").
var blockPool arena.SizePool[block]

func blockKey(sets, width int) int { return sets*BlockWidth + width - 1 }

// getBlock returns a block of width slots, each with an all-Invalid
// frame column, an all-clear bitmap and an allocator with no window
// handed out, for windows of wpl words. Pooled blocks are already
// zeroed: Release clears exactly the frames whose occupancy bits are
// set, which is every valid frame (frames invalidated individually or
// flushed are zeroed at that point), so a full clear — 128 KB per
// 512 KB L2 per execution — is not needed here.
func getBlock(sets, width, wpl int) *block {
	b := blockPool.Get(blockKey(sets, width))
	if b == nil {
		b = &block{frames: make([]Frame, sets*width), slots: make([]slot, width)}
		words := (sets + 63) / 64
		occ := make([]uint64, width*words)
		for j := range b.slots {
			b.slots[j].occ = occ[j*words : (j+1)*words : (j+1)*words]
		}
	}
	if b.wpl != wpl {
		b.wpl = wpl
		scratch := make([]abits.Word, width*wpl)
		for j := range b.slots {
			b.slots[j].wins = arena.NewWindows[abits.Word](wpl)
			b.slots[j].scratch = scratch[j*wpl : (j+1)*wpl : (j+1)*wpl]
		}
	}
	b.live = width
	return b
}

// NewBlock builds width caches of one geometry whose frames share one
// set-major block, 1 <= width <= BlockWidth. It panics on invalid
// configuration (a programming error, not a runtime condition).
func NewBlock(cfg Config, width int) []*Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if width < 1 || width > BlockWidth {
		panic(fmt.Sprintf("cache: block width %d outside [1,%d]", width, BlockWidth))
	}
	sets := cfg.SizeBytes / cfg.LineBytes
	wpl := abits.WordsPerLine(cfg.LineBytes)
	b := getBlock(sets, width, wpl)
	proto := Cache{
		cfg:       cfg,
		sets:      sets,
		stride:    width,
		wpl:       wpl,
		blk:       b,
		lineShift: uint64(bits.TrailingZeros64(uint64(cfg.LineBytes))),
	}
	if sets&(sets-1) == 0 {
		proto.pow2 = true
		proto.setMask = uint64(sets - 1)
	}
	caches := make([]Cache, width)
	out := make([]*Cache, width)
	for j := range caches {
		c, s := &caches[j], &b.slots[j]
		*c = proto
		c.frames, c.occ, c.wins, c.scratch = b.frames[j:], s.occ, s.wins, s.scratch
		out[j] = c
	}
	return out
}

// New builds a standalone cache: a block of width one. It panics on
// invalid configuration.
func New(cfg Config) *Cache { return NewBlock(cfg, 1)[0] }

// Release clears the cache's frames and returns its windows; once every
// cache of its block is released, the block goes back to the pool. The
// cache must not be used afterwards; call it once the owning machine is
// done simulating.
func (c *Cache) Release() {
	if c.blk == nil {
		return
	}
	// Restore the pooled-block invariant (see getBlock): zero every
	// valid frame and its occupancy word; the rest are already zero.
	for wi, w := range c.occ {
		for ; w != 0; w &= w - 1 {
			*c.frame(wi<<6 | bits.TrailingZeros64(w)) = Frame{}
		}
		c.occ[wi] = 0
	}
	c.wins.Reset()
	if c.blk.live--; c.blk.live == 0 {
		blockPool.Put(blockKey(c.sets, c.stride), c.blk)
	}
	c.frames, c.occ, c.blk = nil, nil, nil
	c.wins, c.scratch = nil, nil
}

// BitBytes returns the bytes of access-bit storage the cache holds: its
// allocated window pages plus the scratch window.
// An abits.Word is one byte.
func (c *Cache) BitBytes() int { return (c.wins.Cap() + 1) * c.wpl }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned base of address a.
func (c *Cache) LineAddr(a mem.Addr) mem.Addr {
	return a &^ mem.Addr(c.cfg.LineBytes-1)
}

// WordIndex returns the index of a's access-bit word within its line.
func (c *Cache) WordIndex(a mem.Addr) int {
	return int(a&mem.Addr(c.cfg.LineBytes-1)) / abits.WordBytes
}

// lineNum returns the number of the line containing a: its address
// divided by the line size.
func (c *Cache) lineNum(a mem.Addr) uint64 { return uint64(a) >> c.lineShift }

func (c *Cache) set(n uint64) int {
	if c.pow2 {
		return int(n & c.setMask)
	}
	return int(n % uint64(c.sets))
}

// frame returns the cache's frame for set s.
func (c *Cache) frame(s int) *Frame { return &c.frames[s*c.stride] }

// addr returns the base address of the line a packed tag word names.
func (c *Cache) addr(tag uint32) mem.Addr {
	return mem.Addr(tag>>stateBits) << c.lineShift
}

// Tag returns the line-aligned base address of the line in fr, a frame
// of this cache (meaningful only when fr.State() != Invalid).
func (c *Cache) Tag(fr *Frame) mem.Addr { return c.addr(fr.tag) }

// Lookup returns the frame holding the line containing a, or nil on miss.
// It does not update statistics; callers record hit/miss once per access.
func (c *Cache) Lookup(a mem.Addr) *Frame {
	n := c.lineNum(a)
	fr := c.frame(c.set(n))
	if fr.holds(n) {
		return fr
	}
	return nil
}

// Bits returns the access-bit window of fr, a valid frame of this cache,
// or nil when the line carries no bits yet. The slice aliases the frame's
// window: writes through it update the line's bits in place.
func (c *Cache) Bits(fr *Frame) []abits.Word {
	if fr.win == 0 {
		return nil
	}
	return c.wins.Window(fr.win)
}

// Install places the line containing a into its frame with the given
// valid state and access bits (bits may be nil for a plain line; a zeroed
// bit array is claimed lazily when first needed). The frame keeps its
// window when the new contents carry bits and returns it when they do
// not. If a different line occupied the frame it is returned as the
// victim.
func (c *Cache) Install(a mem.Addr, st State, bits []abits.Word) (victim Line, evicted bool) {
	if bits != nil && len(bits) != c.wpl {
		panic(fmt.Sprintf("cache: bits len %d, want %d", len(bits), c.wpl))
	}
	n := c.lineNum(a)
	if n >= MaxLines {
		panic(fmt.Sprintf("cache: address %#x at or above the %#x address bound", a, c.cfg.MaxAddr()))
	}
	set := c.set(n)
	fr := c.frame(set)
	tag := uint32(n) << stateBits
	switch {
	case fr.tag == 0:
		c.occ[set>>6] |= 1 << (set & 63)
	case fr.tag&^stateMask != tag:
		victim, evicted = Line{Tag: c.addr(fr.tag), State: fr.State()}, true
		if fr.win != 0 {
			// The victim's bits sit in this frame's window, which the
			// new line is about to overwrite or give back; move them to
			// the scratch window. The caller consumes the victim
			// (writeback) before the next Install into this cache, so
			// one scratch suffices.
			copy(c.scratch, c.wins.Window(fr.win))
			victim.Bits = c.scratch
		}
		c.Stats.Evictions++
		if victim.State == Dirty {
			c.Stats.Writebacks++
		}
	}
	win := fr.win
	switch {
	case bits != nil:
		if win == 0 {
			win = c.wins.Alloc()
		}
		copy(c.wins.Window(win), bits)
	case win != 0:
		c.wins.Free(win)
		win = 0
	}
	*fr = Frame{tag: tag | uint32(st), win: win}
	return victim, evicted
}

// EnsureBits returns the frame's access-bit window, claiming a zeroed
// one if the line was installed without bits.
func (c *Cache) EnsureBits(fr *Frame) []abits.Word {
	if fr.win != 0 {
		return c.wins.Window(fr.win)
	}
	fr.win = c.wins.Alloc()
	w := c.wins.Window(fr.win)
	clear(w)
	return w
}

// SetBits overwrites the frame's access bits with a copy of bits,
// claiming a window if the line had none.
func (c *Cache) SetBits(fr *Frame, bits []abits.Word) {
	if len(bits) != c.wpl {
		panic(fmt.Sprintf("cache: bits len %d, want %d", len(bits), c.wpl))
	}
	if fr.win == 0 {
		fr.win = c.wins.Alloc()
	}
	copy(c.wins.Window(fr.win), bits)
}

// line returns fr's contents as a Line whose Bits alias its window. It
// takes the frame by value and unpacks the tag word itself, which keeps
// it within the inlining budget: Invalidate and FlushAll call it per
// line.
func (c *Cache) line(fr Frame) Line {
	l := Line{Tag: c.addr(fr.tag), State: State(fr.tag & stateMask)}
	if fr.win != 0 {
		l.Bits = c.wins.Window(fr.win)
	}
	return l
}

// Invalidate removes the line containing a if present, returning its prior
// contents (needed for writebacks carrying access bits). The line's
// window goes back to the allocator; the returned Bits keep their
// values until the cache next installs or writes bits.
func (c *Cache) Invalidate(a mem.Addr) (old Line, ok bool) {
	n := c.lineNum(a)
	set := c.set(n)
	fr := c.frame(set)
	if !fr.holds(n) {
		return Line{}, false
	}
	old = c.line(*fr)
	if fr.win != 0 {
		c.wins.Free(fr.win)
	}
	*fr = Frame{}
	c.occ[set>>6] &^= 1 << (set & 63)
	return old, true
}

// Downgrade moves the line containing a from Dirty to Clean, returning its
// prior contents so the caller can write data and bits back to memory.
func (c *Cache) Downgrade(a mem.Addr) (old Line, ok bool) {
	n := c.lineNum(a)
	set := c.set(n)
	fr := c.frame(set)
	if !fr.holds(n) {
		return Line{}, false
	}
	old = c.line(*fr)
	fr.SetState(Clean)
	return old, true
}

// FlushAll invalidates every line, invoking cb for each dirty line so the
// caller can model the writeback, and returns every window at once. Used
// between loop executions (§5.2: "we flush the caches after every
// execution").
func (c *Cache) FlushAll(cb func(Line)) {
	c.Stats.Flushes++
	for wi, w := range c.occ {
		for ; w != 0; w &= w - 1 {
			fr := c.frame(wi<<6 | bits.TrailingZeros64(w))
			if fr.State() == Dirty && cb != nil {
				cb(c.line(*fr))
			}
			*fr = Frame{}
		}
		c.occ[wi] = 0
	}
	c.wins.Reset()
}

// ClearBits applies the hardware reset line to the access bits of every
// resident line for which keep returns true (§4.1: qualified reset of tags
// of lines holding privatized data, or a general reset with keep == nil).
// mutate receives each word and returns its cleared value.
func (c *Cache) ClearBits(keep func(line mem.Addr) bool, mutate func(abits.Word) abits.Word) {
	for wi, w := range c.occ {
		for ; w != 0; w &= w - 1 {
			fr := c.frame(wi<<6 | bits.TrailingZeros64(w))
			if fr.win == 0 || keep != nil && !keep(c.addr(fr.tag)) {
				continue
			}
			win := c.wins.Window(fr.win)
			for j := range win {
				win[j] = mutate(win[j])
			}
		}
	}
}

// ForEach calls fn for every valid (non-Invalid) frame, in ascending set
// order. fn must not retain the Line's Bits slice. Used by invariant
// checkers to audit cache/directory agreement.
func (c *Cache) ForEach(fn func(Line)) {
	for wi, w := range c.occ {
		for ; w != 0; w &= w - 1 {
			fn(c.line(*c.frame(wi<<6 | bits.TrailingZeros64(w))))
		}
	}
}

// Lines returns the number of frames (for tests and occupancy inspection).
func (c *Cache) Lines() int { return c.sets }

// Resident reports whether the line containing a is cached in any state.
func (c *Cache) Resident(a mem.Addr) bool { return c.Lookup(a) != nil }
