// Package core implements the paper's primary contribution: hardware
// support for speculative run-time parallelization, realized as extensions
// to the machine's cache coherence protocol (§3, §4).
//
// A Controller plays the role of the hardware added to each node in
// Figure 10: the address-range comparator (translation table) that decides
// which protocol an access uses, the dedicated access-bit tables beside
// each directory, and the test logic in the caches. Arrays under test are
// registered before the speculative loop; every load and store the
// processors issue to those address ranges is routed through the
// non-privatization algorithm (Figures 4, 6, 7) or the privatization
// algorithm with read-in/copy-out (Figures 8, 9). Any cross-iteration
// dependence manifests as a FAIL at a directory, which aborts the
// speculative execution immediately.
package core

import (
	"fmt"
	"math"

	"specrt/internal/abits"
	"specrt/internal/arena"
	"specrt/internal/cache"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Protocol selects how accesses to an array are treated (§4.1: a simple
// address-range comparator decides the type of protocol employed based on
// the address of the array).
type Protocol uint8

const (
	// Plain uses the unmodified coherence protocol.
	Plain Protocol = iota
	// NonPriv applies the non-privatization algorithm: every element must
	// be read-only or accessed by a single processor.
	NonPriv
	// Priv applies the privatization algorithm: each processor works on a
	// private copy; the test fails when MaxR1st > MinW.
	Priv
)

func (p Protocol) String() string {
	switch p {
	case Plain:
		return "plain"
	case NonPriv:
		return "non-privatization"
	case Priv:
		return "privatization"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// FailReason identifies which protocol arm detected the dependence. The
// texts follow the FAIL comments in Figures 6-9.
type FailReason string

const (
	// Non-privatization algorithm (Figures 4, 6, 7).
	FailReadOfWritten   FailReason = "read data that has been written by another processor"
	FailWriteOfShared   FailReason = "write to data that has been read or written by another processor"
	FailFirstVsWrite    FailReason = "race between a First_update and a write"
	FailMergeConflict   FailReason = "conflicting access bits merged at writeback"
	FailTwoFirstUpdates FailReason = "race between two First_updates: processor read and then wrote"
	FailROnlyVsWrite    FailReason = "race between a ROnly_update and a write"

	// Privatization algorithm (Figures 8, 9).
	FailReadFirstTooLate FailReason = "read-first iteration later than a write (Curr_Iter > MinW)"
	FailWriteTooEarly    FailReason = "write iteration earlier than a read-first (Curr_Iter < MaxR1st)"
)

// Failure reports a detected (potential) cross-iteration dependence. It
// implements error so protocol arms can abort transactions with it.
type Failure struct {
	Reason FailReason
	Array  string
	Elem   int
	Proc   int // processor whose access triggered detection
	Iter   int // that processor's iteration (0 for non-priv)
	At     sim.Time
}

func (f *Failure) Error() string {
	return fmt.Sprintf("speculation failed: %s (array %s elem %d proc %d iter %d cycle %d)",
		f.Reason, f.Array, f.Elem, f.Proc, f.Iter, f.At)
}

// Stats counts protocol-extension events.
type Stats struct {
	NonPrivReads      uint64
	NonPrivWrites     uint64
	PrivReads         uint64
	PrivWrites        uint64
	FirstUpdates      uint64 // First_update messages sent
	ROnlyUpdates      uint64 // ROnly_update messages sent
	FirstUpdateFails  uint64 // First_update_fail bounces
	ReadFirstSignals  uint64 // read-first signals to the shared directory
	FirstWriteSignals uint64 // first-write signals to the shared directory
	ReadIns           uint64 // read-in transfers from the shared array
	CopyOuts          uint64 // copy-out transfers to the shared array
	Failures          uint64
}

// Add folds another controller's counters into s (adaptive executions
// aggregate their per-strategy controllers through here).
func (s *Stats) Add(o Stats) {
	s.NonPrivReads += o.NonPrivReads
	s.NonPrivWrites += o.NonPrivWrites
	s.PrivReads += o.PrivReads
	s.PrivWrites += o.PrivWrites
	s.FirstUpdates += o.FirstUpdates
	s.ROnlyUpdates += o.ROnlyUpdates
	s.FirstUpdateFails += o.FirstUpdateFails
	s.ReadFirstSignals += o.ReadFirstSignals
	s.FirstWriteSignals += o.FirstWriteSignals
	s.ReadIns += o.ReadIns
	s.CopyOuts += o.CopyOuts
	s.Failures += o.Failures
}

// Array is one array under test with its protocol state. The directory-
// side fields live in the dedicated access-bit memory next to each
// directory (§4.1); indexing is per element.
type Array struct {
	Region mem.Region
	Proto  Protocol

	// slot is the translation stamp slot naming the array (Unstamped
	// past maxSlots).
	slot uint8

	// RICO enables read-in/copy-out support for privatized arrays
	// (§3.3). Without it the private copies start logically undefined
	// and a read-in situation is a protocol error.
	RICO bool

	// Private per-processor copies (Priv only), each local to its node.
	Priv []mem.Region

	// Non-privatization directory state per element (Figure 5-(a)):
	// First (processor ID, NONE when unset), NoShr, ROnly — one packed
	// directory word per element, exactly the per-element word the
	// hardware tables of §4.1 hold. See npGet/npSet.
	np *arena.I32

	// Privatization shared-directory state per element (Figure 5-(c)).
	maxR1st *arena.I32 // default 0 ("no read-first yet")
	minW    *arena.I32 // default noIter ("never written")

	// Privatization private-directory state, flattened per processor per
	// element (index pIdx(p, e)). These tables are the largest, N entries
	// per element; arena.I32 gives storage only to the lines a processor
	// touches in the current epoch.
	pMaxR1st *arena.I32
	pMaxW    *arena.I32

	// Sticky cross-epoch summaries (timestamp-overflow support, §3.3;
	// the WriteAny bit of §4.1), flattened like pMaxR1st. Allocated
	// lazily by EpochSync.
	touchedEver *arena.Bits
	wroteEver   *arena.Bits
}

// noIter is the MinW "never written" sentinel.
const noIter = math.MaxInt32

// npFirst bit layout of the packed non-privatization word: the low 13
// bits hold First+1 (0 = NONE; wide enough for directory.MaxProcs
// processor IDs), then the NoShr and ROnly flags.
const (
	npFirstMask = 1<<13 - 1
	npNoShrBit  = 1 << 13
	npROnlyBit  = 1 << 14
)

// npGet unpacks element e's directory word (First, NoShr, ROnly).
func (a *Array) npGet(e int) (first int, noShr, rOnly bool) {
	v := a.np.Get(e)
	return int(v&npFirstMask) - 1, v&npNoShrBit != 0, v&npROnlyBit != 0
}

// npSet writes element e's directory word in one store, mirroring the
// hardware's read-modify-write of the per-element table word.
func (a *Array) npSet(e, first int, noShr, rOnly bool) {
	v := int32(first + 1)
	if noShr {
		v |= npNoShrBit
	}
	if rOnly {
		v |= npROnlyBit
	}
	a.np.Set(e, v)
}

// pIdx flattens (processor, element) into the private-directory tables.
func (a *Array) pIdx(p, e int) int { return p*a.Region.Elems + e }

// reset clears all protocol state for a new speculative loop. Every
// table is epoch-tagged, so this is O(1) regardless of array size.
func (a *Array) reset() {
	if a.np != nil {
		a.np.Reset()
	}
	if a.maxR1st != nil {
		a.maxR1st.Reset()
		a.minW.Reset()
		a.pMaxR1st.Reset()
		a.pMaxW.Reset()
	}
	if a.touchedEver != nil {
		a.touchedEver.Reset()
		a.wroteEver.Reset()
	}
}

// Controller is the per-machine speculation hardware.
type Controller struct {
	M      *machine.Machine
	Stats  Stats
	arrays []*Array

	curIter []int32 // per-processor current iteration (1-based)
	armed   bool
	gen     uint64 // invalidates in-flight messages across loops
	failure *Failure

	// IterClearCost is the cycles charged to a processor for the
	// qualified access-bit reset at the start of each iteration of the
	// privatization protocol (§4.1). Zero when no privatized arrays are
	// registered.
	IterClearCost sim.Time

	// LineGrain keeps one set of access bits per cache line instead of
	// per word — the cheap variant §4.1 rejects because false sharing
	// within a line then fails spuriously. Exposed for the granularity
	// ablation; applies to the non-privatization protocol.
	LineGrain bool

	// Inject selects a deliberate protocol bug (see InjectedBug). Only
	// the interleaving fuzzer sets this, to prove the invariant checker
	// catches broken race-resolution rules.
	Inject InjectedBug

	// lineBits is the scratch buffer home-visit handlers fill with the
	// tag state of one line. The engine is single-threaded per machine
	// and every handler's result is copied into cache windows before the
	// next home visit, so one buffer suffices.
	lineBits []abits.Word

	// sigFree recycles the pooled arguments of in-flight home signals.
	sigFree []*homeSig
}

// scratchLine returns the zeroed per-line scratch buffer.
func (c *Controller) scratchLine() []abits.Word {
	wpl := abits.WordsPerLine(c.M.LineBytes())
	if cap(c.lineBits) < wpl {
		c.lineBits = make([]abits.Word, wpl)
	}
	b := c.lineBits[:wpl]
	clear(b)
	return b
}

// grain maps an element to the element whose state it shares: itself at
// word granularity, the first element of its cache line at line
// granularity.
func (c *Controller) grain(r mem.Region, e int) int {
	if !c.LineGrain {
		return e
	}
	lb := c.M.LineBytes()
	perLine := lb / r.ElemSize
	if perLine <= 1 {
		return e
	}
	return e / perLine * perLine
}

// NewController attaches speculation hardware to m. It registers the
// machine's dirty-writeback hook so that displaced dirty lines merge their
// tag state into the directory tables (Figure 6-(e)).
func NewController(m *machine.Machine) *Controller {
	c := &Controller{
		M:             m,
		curIter:       make([]int32, m.Cfg.Procs),
		IterClearCost: 4,
	}
	m.OnDirtyWriteback = func(owner int, line mem.Addr, bits []abits.Word) {
		c.mergeWriteback(owner, line, bits)
	}
	return c
}

// AddNonPriv registers r for the non-privatization algorithm.
func (c *Controller) AddNonPriv(r mem.Region) *Array {
	a := &Array{
		Region: r,
		Proto:  NonPriv,
		np:     arena.NewI32(r.Elems, 0),
	}
	c.register(a)
	return a
}

// PrivCopies lays out on sp one private copy of r per processor, each
// in that processor's local memory: the copies AddPriv takes.
func PrivCopies(sp *mem.Space, r mem.Region, procs int) []mem.Region {
	priv := make([]mem.Region, procs)
	name := r.Name + ".priv"
	for p := range priv {
		priv[p] = sp.Alloc(name, r.Elems, r.ElemSize, mem.Local, p)
	}
	return priv
}

// AddPriv registers r for the privatization algorithm, with priv[p] the
// private copy of processor p (PrivCopies).
func (c *Controller) AddPriv(r mem.Region, priv []mem.Region, rico bool) *Array {
	n := c.M.Cfg.Procs
	if len(priv) != n {
		panic(fmt.Sprintf("core: %d private copies of %s for %d processors", len(priv), r.Name, n))
	}
	a := &Array{
		Region:   r,
		Proto:    Priv,
		RICO:     rico,
		Priv:     priv,
		maxR1st:  arena.NewI32(r.Elems, 0),
		minW:     arena.NewI32(r.Elems, noIter),
		pMaxR1st: arena.NewI32(n*r.Elems, 0),
		pMaxW:    arena.NewI32(n*r.Elems, 0),
	}
	c.register(a)
	return a
}

// register adds a to the translation table, giving it the next slot.
func (c *Controller) register(a *Array) {
	if len(c.arrays) < maxSlots {
		a.slot = FirstSlot + uint8(len(c.arrays))
	}
	c.arrays = append(c.arrays, a)
}

// Arrays returns the registered arrays under test.
func (c *Controller) Arrays() []*Array { return c.arrays }

// findArray is the translation table lookup: it classifies an address by
// range. Addresses in a privatized array's *shared* region match that
// array (processors address the logical array; the controller redirects to
// the private copy).
func (c *Controller) findArray(a mem.Addr) *Array {
	for _, arr := range c.arrays {
		if arr.Region.Contains(a) {
			return arr
		}
	}
	return nil
}

// Arm prepares the hardware for a speculative loop: all cache access bits
// and directory tables are cleared (§4.1) and in-flight messages from any
// previous loop are invalidated.
func (c *Controller) Arm() {
	c.gen++
	c.armed = true
	c.failure = nil
	for i := range c.curIter {
		c.curIter[i] = 0
	}
	for _, a := range c.arrays {
		a.reset()
	}
	c.M.ClearAllBits()
}

// Disarm ends the speculative loop; subsequent accesses use the plain
// protocol and late protocol messages are ignored.
func (c *Controller) Disarm() {
	c.armed = false
	c.gen++
}

// Armed reports whether a speculative loop is in progress.
func (c *Controller) Armed() bool { return c.armed }

// Failed returns the first recorded failure, or nil.
func (c *Controller) Failed() *Failure { return c.failure }

// BeginIteration informs the hardware that processor p starts (super-)
// iteration iter (1-based). For privatized arrays the per-iteration
// Read1st/Write tag bits of p's private lines are cleared with a qualified
// reset (§4.1). It returns the cycles the reset costs the processor.
func (c *Controller) BeginIteration(p, iter int) sim.Time {
	if iter <= 0 {
		panic("core: iterations are 1-based")
	}
	c.curIter[p] = int32(iter)
	var cost sim.Time
	for _, a := range c.arrays {
		if a.Proto != Priv {
			continue
		}
		r := a.Priv[p]
		c.M.ClearBitsRange(p, r.Base, r.End(), abits.Word.ClearIteration)
		cost += c.IterClearCost
	}
	return cost
}

// fail records the first failure and returns it as an error. Later
// failures return the original.
func (c *Controller) fail(reason FailReason, a *Array, elem, proc int, iter int32) *Failure {
	if c.failure == nil {
		c.Stats.Failures++
		c.failure = &Failure{
			Reason: reason,
			Array:  a.Region.Name,
			Elem:   elem,
			Proc:   proc,
			Iter:   int(iter),
			At:     c.M.Eng.Now(),
		}
	}
	return c.failure
}

// Translation stamps. An emitter that knows which array under test an
// access falls in, and at which element, stamps the instruction with
// that translation (a slot and an element), so Access need not look the
// address up again. Slot s >= FirstSlot names the array at index
// s-FirstSlot of Arrays; a Controller gives slots to the first maxSlots.
const (
	// Unstamped leaves the translation to the controller, which looks
	// the address up in its translation table.
	Unstamped uint8 = iota
	// NoArray marks an address in no array under test.
	NoArray
	// FirstSlot is the slot of the first registered array.
	FirstSlot
)

// maxSlots is the number of arrays a slot can name; arrays registered
// after them have no slot (Array.Slot returns Unstamped).
const maxSlots = math.MaxUint8 + 1 - int(FirstSlot)

// Slot returns the translation stamp slot that names a, or Unstamped if
// a has none.
func (a *Array) Slot() uint8 { return a.slot }

// Read performs a load by processor p from address a (in a logical/shared
// region), applying the protocol the translation table selects. It returns
// the latency the processor observes and a failure, if the access itself
// detected one.
func (c *Controller) Read(p int, a mem.Addr) (sim.Time, error) {
	return c.Access(p, a, Unstamped, 0, false)
}

// Write performs a store by processor p to address a under the selected
// protocol. Writes do not stall the processor; the returned latency is
// what the processor observes.
func (c *Controller) Write(p int, a mem.Addr) (sim.Time, error) {
	return c.Access(p, a, Unstamped, 0, true)
}

// Access performs a load (or, if write, a store) by processor p of
// address a, whose translation is stamped as slot and element e: the
// array that slot names and a's element there, NoArray, or Unstamped
// (then e is ignored and the translation table classifies a). A stamp
// must agree with the translation table; the emitter vouches for it.
func (c *Controller) Access(p int, a mem.Addr, slot uint8, e int, write bool) (sim.Time, error) {
	var arr *Array
	if c.armed {
		switch slot {
		case Unstamped:
			if arr = c.findArray(a); arr != nil {
				e = arr.Region.ElemIndex(a)
			}
		case NoArray:
		default:
			arr = c.arrays[slot-FirstSlot]
		}
	}
	switch {
	case arr == nil && write:
		return c.M.Write(p, a), nil
	case arr == nil:
		return c.M.Read(p, a), nil
	case arr.Proto == NonPriv && write:
		return c.npWrite(arr, p, e, a)
	case arr.Proto == NonPriv:
		return c.npRead(arr, p, e, a)
	case write:
		return c.pvWrite(arr, p, e)
	}
	return c.pvRead(arr, p, e)
}

// mergeWriteback folds the access-bit tags of a displaced dirty line into
// the directory tables (Figure 6-(e)). Privatized lines need no merge: the
// private directories are kept current by the read-first and first-write
// signals.
func (c *Controller) mergeWriteback(owner int, line mem.Addr, bits []abits.Word) {
	if !c.armed || bits == nil {
		return
	}
	arr := c.findArray(line)
	if arr == nil || arr.Proto != NonPriv {
		return
	}
	if f := c.npMergeLine(arr, owner, line, bits); f != nil && c.M.OnFail != nil {
		c.M.OnFail(f)
	}
}

// elemsInLine returns the element index range [lo, hi) of arr's shared
// region covered by the cache line at line (which must intersect it).
func elemsInLine(r mem.Region, line mem.Addr, lineBytes int) (lo, hi int) {
	start := line
	if start < r.Base {
		start = r.Base
	}
	end := line + mem.Addr(lineBytes)
	if end > r.End() {
		end = r.End()
	}
	lo = int(start-r.Base) / r.ElemSize
	hi = int(end-r.Base+mem.Addr(r.ElemSize)-1) / r.ElemSize
	if hi > r.Elems {
		hi = r.Elems
	}
	return lo, hi
}

// wordOf returns access-bit word wi of the line in fr, a frame of cc, as
// Machine.Lookup found it: zero on a miss and while the line carries no
// bits, as EnsureBits would hand it out.
func wordOf(cc *cache.Cache, fr *cache.Frame, wi int) abits.Word {
	if fr != nil {
		if bits := cc.Bits(fr); bits != nil {
			return bits[wi]
		}
	}
	return 0
}

// wordIndexOf returns the access-bit word index of element e of r within
// its cache line.
func wordIndexOf(r mem.Region, e int, lineBytes int) int {
	off := int(r.ElemAddr(e) & mem.Addr(lineBytes-1))
	return off / abits.WordBytes
}
