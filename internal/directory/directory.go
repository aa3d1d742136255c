// Package directory implements the per-node, DASH-like directory of the
// simulated CC-NUMA machine [Lenoski et al., "The Directory-Based Cache
// Coherence Protocol for the DASH Multiprocessor"]. Each memory line
// homed at a node has an entry recording whether it is uncached, shared by
// a set of caches, or dirty in exactly one cache. All coherence
// transactions for a line serialize at its home directory, which is the
// property the paper's speculation extensions rely on.
//
// Directory state is kept the way the paper's §4 overhead argument
// assumes hardware keeps it: a dense table indexed by line index, not a
// hash map keyed by address. All home nodes of one machine share a
// single flat Table (a line is only ever looked up at its home node, so
// the per-node directories partition the table by the entry's home tag),
// and each Entry packs state+sharers+owner into 16 bytes at every
// machine size. The sharer set is a single ProcSet word whose meaning —
// inline full-map bit vector, handle to a multi-word arena window, or
// limited-pointer/coarse-vector encoding — is fixed per Table by its
// Store (see procset.go). Entries are epoch-tagged so Reset between loop
// executions is O(1).
package directory

import (
	"fmt"
	"math/bits"
	"sync"

	"specrt/internal/mem"
)

// State of a memory line as seen by its home directory.
type State uint8

const (
	Uncached State = iota
	Shared
	Dirty
)

func (s State) String() string {
	switch s {
	case Uncached:
		return "UNCACHED"
	case Shared:
		return "SHARED"
	case Dirty:
		return "DIRTY"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is the directory state for one line, packed to 16 bytes the way
// a hardware directory word would be. Sharers is opaque: decode it
// through the owning Table's Store (or the Directory sharer methods).
type Entry struct {
	Sharers ProcSet // sharer set, interpreted by the table's Store
	epoch   uint16  // live when == owning Table's current epoch
	home    uint16  // node whose Directory view created the entry
	Owner   int16   // valid when State == Dirty
	State   State
}

// Stats counts directory events at one node.
type Stats struct {
	Lookups       uint64
	Invalidations uint64 // invalidation messages sent
	WritebackReqs uint64 // forced writebacks from dirty owners
}

// Table is the flat directory storage shared by all home nodes of one
// machine, indexed by dense line index (addr >> log2(lineBytes)). It
// grows on demand as the simulated address space grows and is wiped in
// O(1) by advancing its epoch; the embedded Store interprets (and, for
// spilled multi-word sets, owns) every entry's Sharers word.
type Table struct {
	shift   uint
	cur     uint16
	store   Store
	entries []Entry
}

// tablePool recycles table storage across machines. Epoch tagging makes
// reuse safe without wiping: a recycled table advances its epoch, so
// every entry of the previous owner reads as absent.
var tablePool sync.Pool

// NewTable creates an empty table for the given power-of-two line size,
// sized for a machine of procs processors with the given sharer-set
// representation, reusing pooled storage when available.
func NewTable(lineBytes, procs int, mode Mode) *Table {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("directory: line size %d is not a power of two", lineBytes))
	}
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	if v := tablePool.Get(); v != nil {
		t := v.(*Table)
		t.shift = shift
		t.store.configure(mode, procs)
		t.Reset()
		return t
	}
	t := &Table{shift: shift, cur: 1}
	t.store.configure(mode, procs)
	return t
}

// Release hands the table's storage back to the pool. The table (and
// every Directory view of it) must not be used afterwards.
func (t *Table) Release() { tablePool.Put(t) }

// Store returns the interpreter for this table's Sharers words.
func (t *Table) Store() *Store { return &t.store }

// Reset invalidates every entry in O(1) by advancing the epoch and
// frees all spilled sharer sets.
func (t *Table) Reset() {
	t.cur++
	if t.cur == 0 { // wrapped: stale epochs could alias the new one
		clear(t.entries)
		t.cur = 1
	}
	t.store.reset()
}

func (t *Table) grow(n int) {
	if n <= len(t.entries) {
		return
	}
	size := len(t.entries) * 2
	if size < 1024 {
		size = 1024
	}
	for size < n {
		size *= 2
	}
	grown := make([]Entry, size)
	copy(grown, t.entries)
	t.entries = grown
}

// Directory is one home node's view of the shared table: the entries
// whose lines are homed at Node. Entries are created lazily in the
// Uncached state.
type Directory struct {
	Node  int
	Stats Stats
	t     *Table
	count int
}

// New creates a standalone directory for node n with its own table,
// using the default 64-byte line size and a 64-processor full-map
// sharer representation. Views that should share storage (the per-node
// directories of one machine) use NewShared instead.
func New(n int) *Directory { return NewShared(n, NewTable(64, 64, FullMap)) }

// NewShared creates node n's view of an existing table. All views
// sharing a table must be Reset together (machine.FlushCaches does).
func NewShared(n int, t *Table) *Directory { return &Directory{Node: n, t: t} }

// Store returns the interpreter for this directory's Sharers words.
func (d *Directory) Store() *Store { return &d.t.store }

// Entry returns the entry for line-aligned address line, creating an
// Uncached entry on first touch.
//
// The returned pointer is stable until the table grows (a lookup of a
// line beyond the current high-water mark): callers must not hold it
// across an Entry call for a previously unseen higher line.
func (d *Directory) Entry(line mem.Addr) *Entry {
	d.Stats.Lookups++
	t := d.t
	idx := int(line >> t.shift)
	if idx >= len(t.entries) {
		t.grow(idx + 1)
	}
	e := &t.entries[idx]
	if e.epoch != t.cur {
		*e = Entry{epoch: t.cur, home: uint16(d.Node)}
		d.count++
	}
	return e
}

// Peek returns the entry without creating one.
func (d *Directory) Peek(line mem.Addr) *Entry {
	t := d.t
	idx := int(line >> t.shift)
	if idx >= len(t.entries) || t.entries[idx].epoch != t.cur {
		return nil
	}
	return &t.entries[idx]
}

// Len returns the number of lines this view has tracked since the last
// Reset of the shared table.
func (d *Directory) Len() int { return d.count }

// Reset drops all entries (between loop executions the caches are flushed,
// and the runtime resets directory coherence state to match). With a
// shared table this resets the whole table, so all sibling views must be
// Reset in the same sweep.
func (d *Directory) Reset() {
	d.t.Reset()
	d.count = 0
}

// ResetView zeroes this view's line count without touching the shared
// table. For machines with many views of one table, the owner resets
// the table once and clears every sibling view with this (resetting
// each view would burn one table epoch per node).
func (d *Directory) ResetView() { d.count = 0 }

// ForEach calls fn for every line tracked by this view, in increasing
// address order. The dense table makes the walk deterministic without
// collecting and sorting keys: index order is address order.
func (d *Directory) ForEach(fn func(line mem.Addr, e *Entry)) {
	t := d.t
	node := uint16(d.Node)
	for i := range t.entries {
		e := &t.entries[i]
		if e.epoch == t.cur && e.home == node {
			fn(mem.Addr(i)<<t.shift, e)
		}
	}
}

// AddSharer transitions the entry for a read fill by processor p.
func (d *Directory) AddSharer(e *Entry, p int) {
	e.Sharers = d.t.store.Add(e.Sharers, p)
	e.State = Shared
}

// HasSharer reports whether the entry's sharer set contains p.
func (d *Directory) HasSharer(e *Entry, p int) bool { return d.t.store.Has(e.Sharers, p) }

// OnlySharer reports whether p is the entry's single sharer.
func (d *Directory) OnlySharer(e *Entry, p int) bool { return d.t.store.Only(e.Sharers, p) }

// NoSharers reports whether the entry's sharer set is empty.
func (d *Directory) NoSharers(e *Entry) bool { return d.t.store.Empty(e.Sharers) }

// SharerCount returns the size of the entry's represented sharer set.
func (d *Directory) SharerCount(e *Entry) int { return d.t.store.Count(e.Sharers) }

// ForEachSharer calls fn for each processor in the entry's represented
// sharer set, in increasing ID order.
func (d *Directory) ForEachSharer(e *Entry, fn func(p int)) { d.t.store.ForEach(e.Sharers, fn) }

// SetDirty transitions the entry for an exclusive fill by processor p.
// The previous sharer set is dropped; a spilled set's window is freed.
func (d *Directory) SetDirty(e *Entry, p int) {
	d.t.store.drop(e.Sharers)
	e.State = Dirty
	e.Owner = int16(p)
	e.Sharers = 0
}

// ClearToUncached returns the entry to Uncached (after writeback with
// invalidation, or a flush), freeing a spilled sharer set's window.
func (d *Directory) ClearToUncached(e *Entry) {
	d.t.store.drop(e.Sharers)
	e.State = Uncached
	e.Sharers = 0
	e.Owner = 0
}
