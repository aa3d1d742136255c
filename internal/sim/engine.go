// Package sim provides a deterministic discrete-event simulation engine and
// simple queueing resources used to model contention in the memory system.
//
// The engine is single-threaded: events are executed strictly in (time,
// sequence) order, so two runs over the same inputs produce identical
// results. Components schedule closures; there are no goroutines involved.
//
// The event queue is a typed binary heap over a pool of event slots. Slots
// are recycled through a free list, so steady-state scheduling performs no
// heap allocations and no interface boxing: the queue is the simulator's
// hottest path (one event per simulated instruction), and the old
// container/heap implementation paid two allocations per event for boxing
// events into interface{} values.
//
// The heap is fronted by a two-level timing wheel for near-future events
// (the overwhelmingly common Schedule(0..k) case): level 0 is one bucket
// per cycle over a 256-cycle window, level 1 one bucket per 256-cycle
// epoch over the next 16K cycles. Events beyond the wheel horizon — and
// every event scheduled while an order policy is installed, whose rank
// the wheel cannot represent — fall back to the heap. Popping compares
// the wheel head against the heap top under the same (time, rank, seq)
// key, so the merged queue executes in exactly the order the pure heap
// would.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulated clock value in processor cycles.
type Time = int64

// OrderPolicy ranks same-time events. When two events are scheduled for
// the same cycle, the one with the lower rank runs first; equal ranks
// fall back to schedule order. The rank is computed once, at schedule
// time, from the event's sequence number, so a policy is a pure function
// and the engine stays fully deterministic for a given policy.
//
// A nil policy (the default) ranks every event 0, which reduces to the
// engine's historical FIFO tie-break. The protocol interleaving fuzzer
// installs SeededOrder policies to explore permutations of same-cycle
// message deliveries.
type OrderPolicy func(seq uint64) uint64

// SeededOrder returns a policy that permutes same-cycle events
// pseudo-randomly but deterministically for the given seed (splitmix64
// over the event sequence number).
func SeededOrder(seed uint64) OrderPolicy {
	return func(seq uint64) uint64 {
		return splitmix64(seed + seq*0x9e3779b97f4a7c15)
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// event is a scheduled closure. rank (from the order policy) and seq
// break ties so that same-time execution order is deterministic.
type event struct {
	at   Time
	rank uint64
	seq  uint64
	fn   func()
}

// wentry is a timing-wheel entry. Wheel events always carry rank 0 (the
// wheel is bypassed whenever an order policy is installed), so only the
// time and sequence number are needed to merge with the heap order.
type wentry struct {
	at  Time
	seq uint64
	fn  func()
}

// Timing-wheel geometry: level 0 resolves single cycles across a 256-
// cycle window; level 1 holds one bucket per 256-cycle epoch across the
// next 64 epochs. Anything at or beyond l0base+wheelHorizon goes to the
// heap.
const (
	l0Bits       = 8
	l0Size       = 1 << l0Bits
	l0Mask       = l0Size - 1
	l1Size       = 64
	wheelHorizon = l0Size * l1Size
)

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now   Time
	seq   uint64
	nRun  uint64
	order OrderPolicy

	// pool stores event slots; heap holds pool indices ordered by
	// (at, seq); free lists recycled slots. Storing 4-byte indices in the
	// heap keeps sift operations cheap and lets slots be reused without
	// moving closures around.
	pool []event
	heap []int32
	free []int32

	// Two-level timing wheel. l0base is the 256-aligned start of the
	// level-0 window; l0pos is a scan cursor (no occupied slot lies below
	// it); l0head[i] indexes the next unpopped entry of bucket i, so
	// popping is O(1) without sliding the slice. l0occ/l1occ are occupancy
	// bitmaps — one bit per bucket — so finding the next non-empty bucket
	// is a TrailingZeros64, not a linear scan (the wheel often holds a
	// single in-flight event, and a scan from the window base to the
	// event's slot on every peek dominated the engine's profile). wcount
	// counts all wheel entries, l0count the level-0 subset. noWheel is
	// latched when an order policy is installed (or by DisableWheel) and
	// routes everything to the heap from then on.
	noWheel bool
	l0base  Time
	l0pos   int
	l0count int
	wcount  int
	l0occ   [l0Size / 64]uint64
	l1occ   uint64
	l0      [l0Size][]wentry
	l0head  [l0Size]int
	l1      [l1Size][]wentry
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// SetOrderPolicy installs p as the same-cycle tie-break policy for events
// scheduled from now on; nil restores FIFO order. Events already in the
// queue keep the rank they were scheduled with.
//
// Ranks are a function of the schedule sequence number, which the wheel
// buckets cannot order by, so installing a non-nil policy flushes any
// wheel contents into the heap (where they keep their original
// rank-0/seq keys) and latches the engine into pure-heap mode for the
// rest of its lifetime. Engines are per-execution, and the interleaving
// fuzzer installs its policy up front, so the latch costs nothing in
// practice while keeping policy semantics exact.
func (e *Engine) SetOrderPolicy(p OrderPolicy) {
	e.order = p
	if p != nil {
		e.DisableWheel()
	}
}

// DisableWheel permanently routes this engine's events through the pure
// binary heap, flushing any buckets it already holds. Execution order is
// unchanged — the wheel is an ordering-transparent accelerator — so this
// exists for order policies (above) and as the reference configuration
// for differential engine tests.
func (e *Engine) DisableWheel() {
	if e.noWheel {
		return
	}
	e.noWheel = true
	if e.wcount == 0 {
		return
	}
	flush := func(b []wentry, from int) {
		for i := from; i < len(b); i++ {
			e.heapPush(b[i].at, 0, b[i].seq, b[i].fn)
		}
	}
	for i := 0; i < l0Size; i++ {
		flush(e.l0[i], e.l0head[i])
		clear(e.l0[i])
		e.l0[i] = e.l0[i][:0]
		e.l0head[i] = 0
	}
	for i := 0; i < l1Size; i++ {
		flush(e.l1[i], 0)
		clear(e.l1[i])
		e.l1[i] = e.l1[i][:0]
	}
	e.l0occ, e.l1occ = [l0Size / 64]uint64{}, 0
	e.l0count, e.wcount, e.l0pos = 0, 0, 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.nRun }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return len(e.heap) + e.wcount }

// FreeSlots reports how many recycled event slots are available for reuse
// (for allocation tests).
func (e *Engine) FreeSlots() int { return len(e.free) }

// Schedule runs fn after delay cycles. A negative delay panics: scheduling
// into the past would break causality.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	if !e.noWheel {
		if e.wcount == 0 {
			// Empty wheel: re-anchor the window at the current time so
			// long heap-only stretches can't strand the horizon behind
			// the clock.
			e.l0base = e.now &^ l0Mask
			e.l0pos = 0
		}
		// A negative offset is possible: cascading advances l0base to
		// the earliest wheel entry's window, which may be ahead of the
		// clock. Events scheduled into that gap take the heap, which is
		// always correct. The bucket insert is written out inline here —
		// one event per simulated instruction makes this the hottest
		// store in the simulator, and the helper call showed up in
		// profiles.
		if d := t - e.l0base; 0 <= d && d < wheelHorizon {
			if t>>l0Bits == e.l0base>>l0Bits {
				i := int(t & l0Mask)
				e.l0[i] = append(e.l0[i], wentry{at: t, seq: e.seq, fn: fn})
				e.l0occ[i>>6] |= 1 << uint(i&63)
				if i < e.l0pos {
					e.l0pos = i
				}
				e.l0count++
			} else {
				// One level-1 bucket per 256-cycle epoch; within the
				// horizon at most one future epoch maps to each bucket, so
				// a bucket never mixes epochs and cascading moves it
				// wholesale.
				j := int((t >> l0Bits) % l1Size)
				e.l1[j] = append(e.l1[j], wentry{at: t, seq: e.seq, fn: fn})
				e.l1occ |= 1 << uint(j)
			}
			e.wcount++
			return
		}
	}
	var rank uint64
	if e.order != nil {
		rank = e.order(e.seq)
	}
	e.heapPush(t, rank, e.seq, fn)
}

// heapPush inserts an event with an explicit key into the binary heap.
func (e *Engine) heapPush(t Time, rank, seq uint64, fn func()) {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.pool = append(e.pool, event{})
		slot = int32(len(e.pool) - 1)
	}
	e.pool[slot] = event{at: t, rank: rank, seq: seq, fn: fn}
	e.heap = append(e.heap, slot)
	e.siftUp(len(e.heap) - 1)
}

// wheelCascade advances the exhausted level-0 window to the next
// non-empty level-1 epoch and spills its bucket into level 0. Within the
// horizon each bucket holds exactly one epoch and epochs wrap the bucket
// ring exactly once, so circular bit order from the next epoch's bucket
// IS increasing epoch order. Buckets are FIFO in schedule order and seq
// is monotonic, so an in-order copy preserves the (at, seq) pop order.
// The caller guarantees wcount > 0; the loop runs until level 0 holds an
// entry.
func (e *Engine) wheelCascade() {
	for e.l0count == 0 {
		epoch := e.l0base >> l0Bits
		start := uint((epoch + 1) % l1Size)
		k := bits.TrailingZeros64(bits.RotateLeft64(e.l1occ, -int(start)))
		epoch += 1 + Time(k)
		e.l0base = epoch << l0Bits
		e.l0pos = 0
		j := int(epoch % l1Size)
		b := e.l1[j]
		for _, w := range b {
			i := int(w.at & l0Mask)
			e.l0[i] = append(e.l0[i], w)
			e.l0occ[i>>6] |= 1 << uint(i&63)
		}
		e.l0count += len(b)
		clear(b)
		e.l1[j] = b[:0]
		e.l1occ &^= 1 << uint(j)
	}
}

// less orders heap positions i and j by (at, rank, seq).
func (e *Engine) less(i, j int) bool {
	a, b := &e.pool[e.heap[i]], &e.pool[e.heap[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && e.less(r, l) {
			min = r
		}
		if !e.less(min, i) {
			break
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
}

// release returns slot to the free list, dropping its closure so the
// engine does not retain it.
func (e *Engine) release(slot int32) {
	e.pool[slot].fn = nil
	e.free = append(e.free, slot)
}

// scanHead merges the two queues under the common (at, rank, seq) key;
// wheel entries always have rank 0, and sequence numbers are unique, so
// the comparison never ties. It reports whether the head is the wheel's
// (else the heap's), its time, and whether any event is pending. When the
// head is the wheel's, the cursor e.l0pos is left on its bucket. The
// wheel peek is written out inline (cascade excepted): this runs once per
// event and the helper-call version showed up in profiles.
func (e *Engine) scanHead() (wheel bool, t Time, ok bool) {
	var we *wentry
	if e.wcount > 0 {
		if e.l0count == 0 {
			e.wheelCascade()
		}
		// Next occupied slot at or above the cursor (one exists:
		// l0count > 0 and nothing occupied sits below the cursor).
		i := e.l0pos
		word := e.l0occ[i>>6] >> uint(i&63) << uint(i&63)
		for w := i >> 6; word == 0; {
			w++
			word = e.l0occ[w]
			i = w << 6
		}
		i = i&^63 + bits.TrailingZeros64(word)
		e.l0pos = i
		we = &e.l0[i][e.l0head[i]]
	}
	if len(e.heap) == 0 {
		if we == nil {
			return false, 0, false
		}
		return true, we.at, true
	}
	h := &e.pool[e.heap[0]]
	if we == nil || h.at < we.at || (h.at == we.at && h.rank == 0 && h.seq < we.seq) {
		return false, h.at, true
	}
	return true, we.at, true
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	wheel, _, ok := e.scanHead()
	if !ok {
		return false
	}
	if wheel {
		// Pop the entry scanHead found (cursor on its bucket).
		i := e.l0pos
		h := e.l0head[i]
		w := e.l0[i][h]
		e.l0[i][h] = wentry{} // drop the closure reference
		if h+1 == len(e.l0[i]) {
			e.l0[i] = e.l0[i][:0]
			e.l0head[i] = 0
			e.l0occ[i>>6] &^= 1 << uint(i&63)
		} else {
			e.l0head[i] = h + 1
		}
		e.l0count--
		e.wcount--
		e.now = w.at
		e.nRun++
		w.fn()
		return true
	}
	slot := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
	ev := &e.pool[slot]
	e.now = ev.at
	fn := ev.fn
	e.release(slot)
	e.nRun++
	fn()
	return true
}

// PeekTime reports the time of the earliest pending event, if any,
// without running it.
func (e *Engine) PeekTime() (Time, bool) {
	_, t, ok := e.scanHead()
	return t, ok
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for {
		at, ok := e.PeekTime()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Drain removes all pending events without running them. Used when a
// speculative execution is aborted.
func (e *Engine) Drain() {
	for _, slot := range e.heap {
		e.release(slot)
	}
	e.heap = e.heap[:0]
	if e.wcount > 0 {
		for i := 0; i < l0Size; i++ {
			clear(e.l0[i])
			e.l0[i] = e.l0[i][:0]
			e.l0head[i] = 0
		}
		for i := 0; i < l1Size; i++ {
			clear(e.l1[i])
			e.l1[i] = e.l1[i][:0]
		}
		e.l0occ, e.l1occ = [l0Size / 64]uint64{}, 0
		e.l0count, e.wcount, e.l0pos = 0, 0, 0
	}
}
