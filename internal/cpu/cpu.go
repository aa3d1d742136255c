// Package cpu models the processors executing a (speculative) parallel
// loop on the simulated machine. Processors execute instruction streams —
// compute delays, loads, stores, lock and barrier operations — one
// instruction per simulation event, and account their time in the paper's
// three categories: executing instructions (Busy), synchronizing at locks
// or barriers (Sync), and waiting for data from the memory system (Mem)
// (§6.1, Figure 12).
package cpu

import (
	"fmt"
	"math"
	"strings"

	"specrt/internal/core"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Kind is an instruction opcode.
type Kind uint8

const (
	// KCompute spends Cycles cycles of pure computation.
	KCompute Kind = iota
	// KLoad reads Addr through the memory system.
	KLoad
	// KStore writes Addr; stores do not stall the processor.
	KStore
	// KLockAcq acquires lock ID (blocking).
	KLockAcq
	// KLockRel releases lock ID.
	KLockRel
	// KBarrier joins barrier ID and blocks until all participants
	// arrive.
	KBarrier
	// KBeginIter starts (super-)iteration ID on this processor: the
	// speculation hardware clears per-iteration tag bits (§4.1).
	KBeginIter
	// KException models a run-time exception during speculative
	// execution (§2.2: the execution is aborted and restarted
	// serially).
	KException
)

func (k Kind) String() string {
	switch k {
	case KCompute:
		return "compute"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KLockAcq:
		return "lockacq"
	case KLockRel:
		return "lockrel"
	case KBarrier:
		return "barrier"
	case KBeginIter:
		return "beginiter"
	case KException:
		return "exception"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Instr is one processor instruction. A flat struct (not an interface)
// keeps instruction streams allocation-free, and it is packed into 16
// bytes, since every processor's instruction buffers hold them by the
// thousand.
type Instr struct {
	Kind Kind
	// Slot is a load's or store's translation stamp (core.Access): the
	// slot of the array under test it falls in, core.NoArray, or
	// core.Unstamped, which leaves the lookup to the controller.
	Slot uint8
	// ID is a lock or barrier ID, a KBeginIter iteration number, or the
	// element of a stamped load or store.
	ID int32
	// op is the address of a load or store, or the cycles of a compute.
	op uint64
}

// Addr returns a load's or store's address.
func (in Instr) Addr() mem.Addr { return mem.Addr(in.op) }

// Cycles returns a compute's cycles.
func (in Instr) Cycles() sim.Time { return sim.Time(in.op) }

// Convenience constructors.
func Compute(cycles sim.Time) Instr { return Instr{Kind: KCompute, op: uint64(cycles)} }
func Load(a mem.Addr) Instr         { return Instr{Kind: KLoad, op: uint64(a)} }
func Store(a mem.Addr) Instr        { return Instr{Kind: KStore, op: uint64(a)} }
func LockAcq(id int) Instr          { return Instr{Kind: KLockAcq, ID: int32(id)} }
func LockRel(id int) Instr          { return Instr{Kind: KLockRel, ID: int32(id)} }
func Barrier(id int) Instr          { return Instr{Kind: KBarrier, ID: int32(id)} }
func BeginIter(iter int) Instr      { return Instr{Kind: KBeginIter, ID: int32(iter)} }
func Exception() Instr              { return Instr{Kind: KException} }

// LoadElem returns a load of a stamped with its translation: a is
// element e of the array in translation slot slot (core.NoArray if it is
// in none). An element past int32 leaves the load unstamped.
func LoadElem(a mem.Addr, slot uint8, e int) Instr { return stamp(Load(a), slot, e) }

// StoreElem is LoadElem for a store.
func StoreElem(a mem.Addr, slot uint8, e int) Instr { return stamp(Store(a), slot, e) }

func stamp(in Instr, slot uint8, e int) Instr {
	if e <= math.MaxInt32 {
		in.Slot, in.ID = slot, int32(e)
	}
	return in
}

// Breakdown is a processor's time split into the paper's categories.
type Breakdown struct {
	Busy sim.Time
	Mem  sim.Time
	Sync sim.Time
}

// Total returns the accounted cycles.
func (b Breakdown) Total() sim.Time { return b.Busy + b.Mem + b.Sync }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Busy += o.Busy
	b.Mem += o.Mem
	b.Sync += o.Sync
}

// SyncCosts parameterize the lock and barrier implementations.
type SyncCosts struct {
	LockAcquire sim.Time // uncontended acquire (remote lock variable)
	LockHandoff sim.Time // release-to-waiter transfer
	BarrierCost sim.Time // per-processor barrier entry/exit overhead
}

// DefaultSyncCosts match a NUMA lock/barrier implemented over the
// machine's remote-access latencies.
func DefaultSyncCosts() SyncCosts {
	return SyncCosts{LockAcquire: 30, LockHandoff: 40, BarrierCost: 40}
}

// Source supplies a processor's instruction stream lazily, one batch at a
// time: it is called only when the processor has used up its previous
// batch, so a source may consult shared scheduling state (e.g. a dynamic
// iteration dispenser) at the moment of the request. An empty batch ends
// the processor's work; the source is not called again in this Run. The
// processor owns a batch until it asks for the next one: the source may
// reuse the batch's backing storage only from its next call on.
type Source func(p *Proc) []Instr

// Proc is one executing processor.
type Proc struct {
	ID   int
	B    Breakdown
	Done bool

	// Instrs counts executed instructions by kind.
	Instrs [8]uint64

	src     Source // nil once it has returned an empty batch
	blocked bool
	sys     *System

	// q is the current batch and qh the index of its next instruction.
	q  []Instr
	qh int
	// stepFn is the processor's step closure, bound once at system
	// construction: scheduling it allocates nothing, where a fresh
	// closure per instruction event would dominate the simulator's
	// allocation profile.
	stepFn func()

	// waitKind/waitID identify what a blocked processor is waiting on
	// ("lock" or "barrier" plus its ID), so a deadlock can name every
	// blocked processor's wait object instead of just one ID.
	waitKind string
	waitID   int
}

// next returns the processor's next instruction, asking the source for a
// new batch once the current one is used up.
func (p *Proc) next() (Instr, bool) {
	if p.qh == len(p.q) {
		if p.src == nil {
			return Instr{}, false
		}
		if p.q, p.qh = p.src(p), 0; len(p.q) == 0 {
			p.src = nil
			return Instr{}, false
		}
	}
	p.qh++
	return p.q[p.qh-1], true
}

// System drives a set of processors over a machine. If Ctl is non-nil,
// loads and stores are routed through the speculation controller;
// otherwise they use the plain protocol.
type System struct {
	M     *machine.Machine
	Ctl   *core.Controller
	Costs SyncCosts

	Procs []*Proc

	locks    map[int]*lock
	barriers map[int]*barrier

	aborted  bool
	excepted bool
	failure  *core.Failure
	running  int
	started  sim.Time
}

// lock is a FIFO lock. Its queue is waiters[head:] (with their arrival
// times in arrived[head:]); a release advances head. The queue moves back
// to the front of its storage when it drains, or when an arrival finds
// the storage full, so appends reuse that storage instead of
// reallocating it.
type lock struct {
	held    bool
	head    int
	waiters []*Proc
	arrived []sim.Time
}

type barrier struct {
	need    int
	procs   []*Proc
	arrived []sim.Time
}

// NewSystem creates a system for all processors of m.
func NewSystem(m *machine.Machine, ctl *core.Controller) *System {
	s := &System{
		M:        m,
		Ctl:      ctl,
		Costs:    DefaultSyncCosts(),
		locks:    make(map[int]*lock),
		barriers: make(map[int]*barrier),
	}
	for i := 0; i < m.Cfg.Procs; i++ {
		p := &Proc{ID: i, sys: s}
		p.stepFn = func() { s.step(p) }
		s.Procs = append(s.Procs, p)
	}
	// Asynchronous failures (detected at a directory by a deferred
	// message) abort the whole speculative execution.
	m.OnFail = func(err error) {
		if f, ok := err.(*core.Failure); ok {
			s.abort(f)
		}
	}
	return s
}

// Aborted reports whether the run was aborted and by which failure.
// failure is nil when the abort came from an exception.
func (s *System) Aborted() (*core.Failure, bool) { return s.failure, s.aborted }

// Excepted reports whether the abort was caused by an exception.
func (s *System) Excepted() bool { return s.excepted }

// abort stops the speculative execution immediately: pending events are
// discarded so the simulated clock freezes at the failure, matching the
// paper's "execution stops" semantics. In-flight protocol messages are
// dropped; the runtime restores state before re-executing serially.
func (s *System) abort(f *core.Failure) {
	if s.aborted {
		return
	}
	s.aborted = true
	s.failure = f
	s.M.Eng.Drain()
	s.M.ResetMessages()
	for _, p := range s.Procs {
		p.Done = true
		p.blocked = false
	}
	s.running = 0
}

// Run executes the given instruction sources (one per participating
// processor; sources[i] drives processor procIDs[i]) to completion or
// abort, and returns the elapsed cycles.
func (s *System) Run(procIDs []int, sources []Source) sim.Time {
	if len(procIDs) != len(sources) {
		panic("cpu: procIDs and sources length mismatch")
	}
	s.aborted = false
	s.excepted = false
	s.failure = nil
	s.running = len(procIDs)
	s.started = s.M.Eng.Now()
	// A previous aborted run may have left a lock held by a processor
	// that no longer exists or a barrier partially filled; every Run is
	// a fresh phase.
	for _, l := range s.locks {
		l.held = false
		l.head = 0
		l.waiters = l.waiters[:0]
		l.arrived = l.arrived[:0]
	}
	for _, b := range s.barriers {
		b.procs = b.procs[:0]
		b.arrived = b.arrived[:0]
	}
	for i, id := range procIDs {
		p := s.Procs[id]
		p.src = sources[i]
		p.q, p.qh = nil, 0
		p.Done = false
		p.blocked = false
		p.waitKind = ""
		s.M.Eng.Schedule(0, p.stepFn)
	}
	s.M.Eng.Run()
	if !s.aborted {
		var stuck []string
		for _, id := range procIDs {
			if p := s.Procs[id]; !p.Done {
				// A blocked processor with no runnable events is a
				// deadlock; silently truncating the phase would corrupt
				// every result built on it.
				if p.waitKind != "" {
					stuck = append(stuck, fmt.Sprintf("processor %d blocked at %s %d", p.ID, p.waitKind, p.waitID))
				} else {
					stuck = append(stuck, fmt.Sprintf("processor %d not done (no runnable events)", p.ID))
				}
			}
		}
		if len(stuck) > 0 {
			panic(fmt.Sprintf("cpu: deadlock at simulated time %d: %s",
				s.M.Eng.Now(), strings.Join(stuck, "; ")))
		}
	}
	return s.M.Eng.Now() - s.started
}

// finish marks a processor complete.
func (s *System) finish(p *Proc) {
	if !p.Done {
		p.Done = true
		s.running--
	}
}

// step runs when a processor's next instruction is due: it executes that
// one instruction and schedules the step for whatever follows.
func (s *System) step(p *Proc) {
	if p.Done || p.blocked {
		return
	}
	if s.aborted {
		s.finish(p)
		return
	}
	in, ok := p.next()
	if !ok {
		s.finish(p)
		return
	}
	s.exec1(p, in)
}

// accountMem splits a memory access latency into Busy and Mem.
func (s *System) accountMem(p *Proc, lat sim.Time) {
	busy := lat
	if busy > s.M.Cfg.Lat.L1Hit {
		busy = s.M.Cfg.Lat.L1Hit
	}
	p.B.Busy += busy
	p.B.Mem += lat - busy
}

// exec1 executes one instruction of p and schedules the next step.
func (s *System) exec1(p *Proc, in Instr) {
	p.Instrs[in.Kind]++
	eng := s.M.Eng

	switch in.Kind {
	case KCompute:
		p.B.Busy += in.Cycles()
		eng.Schedule(in.Cycles(), p.stepFn)

	case KLoad, KStore:
		lat, err := s.access(p.ID, in)
		s.accountMem(p, lat)
		if err != nil {
			s.failSync(err)
			s.finish(p)
			return
		}
		eng.Schedule(lat, p.stepFn)

	case KBeginIter:
		var cost sim.Time
		if s.Ctl != nil {
			cost = s.Ctl.BeginIteration(p.ID, int(in.ID))
		}
		p.B.Busy += cost
		eng.Schedule(cost, p.stepFn)

	case KLockAcq:
		s.lockAcquire(p, int(in.ID))

	case KLockRel:
		s.lockRelease(p, int(in.ID))

	case KBarrier:
		s.barrierArrive(p, int(in.ID))

	case KException:
		// The speculative execution aborts immediately; the run-time
		// restores state and restarts serially (§2.2).
		s.excepted = true
		s.abort(nil)
	}
}

// access performs p's load or store in. With a controller, the access
// goes through the translation stamp the instruction carries.
func (s *System) access(p int, in Instr) (sim.Time, error) {
	write := in.Kind == KStore
	if s.Ctl != nil {
		return s.Ctl.Access(p, in.Addr(), in.Slot, int(in.ID), write)
	}
	if write {
		return s.M.Write(p, in.Addr()), nil
	}
	return s.M.Read(p, in.Addr()), nil
}

// failSync handles a failure detected synchronously by p's own access.
func (s *System) failSync(err error) {
	if f, ok := err.(*core.Failure); ok {
		s.abort(f)
	} else {
		panic(fmt.Sprintf("cpu: unexpected access error %v", err))
	}
}

func (s *System) lockAcquire(p *Proc, id int) {
	l := s.locks[id]
	if l == nil {
		l = &lock{}
		s.locks[id] = l
	}
	if !l.held {
		l.held = true
		p.B.Sync += s.Costs.LockAcquire
		s.M.Eng.Schedule(s.Costs.LockAcquire, p.stepFn)
		return
	}
	p.blocked = true
	p.waitKind, p.waitID = "lock", id
	if l.head > 0 && len(l.waiters) == cap(l.waiters) {
		n := copy(l.waiters, l.waiters[l.head:])
		copy(l.arrived, l.arrived[l.head:])
		clear(l.waiters[n:])
		l.waiters, l.arrived, l.head = l.waiters[:n], l.arrived[:n], 0
	}
	l.waiters = append(l.waiters, p)
	l.arrived = append(l.arrived, s.M.Eng.Now())
}

func (s *System) lockRelease(p *Proc, id int) {
	l := s.locks[id]
	if l == nil || !l.held {
		panic(fmt.Sprintf("cpu: release of unheld lock %d", id))
	}
	// The releaser continues immediately.
	s.M.Eng.Schedule(0, p.stepFn)
	if l.head == len(l.waiters) {
		l.held = false
		return
	}
	w, at := l.waiters[l.head], l.arrived[l.head]
	l.waiters[l.head] = nil
	if l.head++; l.head == len(l.waiters) {
		l.head = 0
		l.waiters = l.waiters[:0]
		l.arrived = l.arrived[:0]
	}
	handoff := s.Costs.LockHandoff
	w.blocked = false
	w.waitKind = ""
	release := s.M.Eng.Now()
	w.B.Sync += release - at + handoff
	s.M.Eng.Schedule(handoff, w.stepFn)
}

// SetBarrier declares barrier id to expect n participants. Barriers must
// be declared before use so that a subset of processors can synchronize.
func (s *System) SetBarrier(id, n int) {
	s.barriers[id] = &barrier{need: n}
}

func (s *System) barrierArrive(p *Proc, id int) {
	b := s.barriers[id]
	if b == nil {
		panic(fmt.Sprintf("cpu: barrier %d not declared", id))
	}
	b.procs = append(b.procs, p)
	b.arrived = append(b.arrived, s.M.Eng.Now())
	if len(b.procs) < b.need {
		p.blocked = true
		p.waitKind, p.waitID = "barrier", id
		return
	}
	// Last arrival releases everyone.
	release := s.M.Eng.Now()
	cost := s.Costs.BarrierCost
	for i, q := range b.procs {
		q.blocked = false
		q.waitKind = ""
		q.B.Sync += release - b.arrived[i] + cost
		s.M.Eng.Schedule(cost, q.stepFn)
	}
	b.procs = b.procs[:0]
	b.arrived = b.arrived[:0]
}

// SliceSource adapts a pre-built instruction slice into a Source that
// hands it over as one batch. The caller must not mutate instrs while the
// processor runs.
func SliceSource(instrs []Instr) Source {
	return func(*Proc) []Instr {
		b := instrs
		instrs = nil
		return b
	}
}
