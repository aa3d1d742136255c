// Package machine assembles the simulated CC-NUMA multiprocessor: one
// processor per node, each with a direct-mapped primary and secondary
// cache, a slice of the distributed global memory, and the corresponding
// section of the directory (§5.1). The caches are kept coherent with a
// DASH-like invalidation protocol in which all transactions for a line
// serialize at its home directory.
//
// The package implements the *plain* coherence protocol and exposes the
// transaction skeleton (Lookup, Take, FetchRead, FetchWrite, SendToHome,
// SendToProc) that package core composes into the paper's speculation
// protocols. Access bits travel with lines on fills and writebacks; the
// plain protocol ignores them.
//
// Timing model: a memory access is simulated transactionally at issue
// time. The full protocol walk computes a latency from unloaded hop costs
// (Latencies) plus deterministic FIFO queueing at each home node's
// directory/memory server, and mutates cache and directory state
// atomically. Update messages that the speculation protocols send without
// stalling the processor (First_update, ROnly_update, read-first and
// first-write signals) are instead *deferred*: they are scheduled as
// engine events after the one-way network latency, so they genuinely race
// with later accesses, exactly the races §3.2 discusses.
//
// Deferred messages and dirty-eviction traffic route through a pluggable
// interconnect model (Config.Net): the default Ideal topology is the
// paper's constant per-hop latency and reproduces it bit-for-bit, while
// the bus, crossbar and mesh topologies add deterministic per-link FIFO
// queueing (see package interconnect). Synchronous fills keep their
// unloaded hop costs (Latencies) in every topology, as in the paper.
package machine

import (
	"fmt"

	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Latencies are unloaded round-trip costs in cycles (§5.1: "1, 12, 60, 208
// and 291 cycles on average ... they increase with resource contention").
type Latencies struct {
	L1Hit      sim.Time // round trip to on-chip primary cache
	L2Hit      sim.Time // round trip to off-chip secondary cache
	LocalMem   sim.Time // memory in the local node
	Remote2Hop sim.Time // memory in a remote node, 2 hops
	Remote3Hop sim.Time // memory in a remote node, 3 hops (dirty third node)

	// MsgHop is the one-way network latency of a protocol message that
	// does not carry a data line (bit updates, invalidation singletons).
	MsgHop sim.Time

	// HomeOccLine and HomeOccMsg are the cycles the home node's
	// directory+memory pipeline is occupied by a line transaction and by
	// a bit-update message respectively; they produce queueing delay.
	HomeOccLine sim.Time
	HomeOccMsg  sim.Time
}

// DefaultLatencies returns the paper's §5.1 figures plus occupancy values
// chosen so that a loaded 16-processor machine shows the paper's
// contention behaviour.
func DefaultLatencies() Latencies {
	return Latencies{
		L1Hit:       1,
		L2Hit:       12,
		LocalMem:    60,
		Remote2Hop:  208,
		Remote3Hop:  291,
		MsgHop:      70, // ≈ (Remote2Hop - LocalMem) / 2
		HomeOccLine: 20,
		HomeOccMsg:  6,
	}
}

// Config describes the simulated machine.
type Config struct {
	Procs      int // one processor per node
	L1, L2     cache.Config
	Lat        Latencies
	Contention bool // model queueing at home nodes
	// StallWrites makes processors wait for write misses instead of
	// retiring them into a write buffer. The paper's machine does not
	// stall (§5.1); this knob exists for the ablation.
	StallWrites bool
	// Net selects the interconnect model for deferred protocol messages
	// and writeback traffic. Net.Nodes is filled from Procs; the zero
	// value is the Ideal (constant-hop) topology of the paper.
	Net interconnect.Config
	// DirMode selects the directory's sharer-set representation: the
	// zero value is the exact full-map vector (inline to 64 processors,
	// multi-word above); Coarse is the limited-pointer/coarse-vector
	// encoding that trades precision for one-word entries at any scale.
	DirMode directory.Mode
}

// DefaultConfig returns the paper's machine: 200-MHz processors with a
// 32-Kbyte on-chip primary cache and a 512-Kbyte off-chip secondary cache,
// both direct-mapped with 64-byte lines (§5.1).
func DefaultConfig(procs int) Config {
	return Config{
		Procs:      procs,
		L1:         cache.Config{SizeBytes: 32 * 1024, LineBytes: 64},
		L2:         cache.Config{SizeBytes: 512 * 1024, LineBytes: 64},
		Lat:        DefaultLatencies(),
		Contention: true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Procs <= 0 || c.Procs > directory.MaxProcs {
		return fmt.Errorf("machine: procs must be in [1,%d], got %d", directory.MaxProcs, c.Procs)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("machine: L1/L2 line sizes differ (%d vs %d)", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.L1.SizeBytes > c.L2.SizeBytes {
		return fmt.Errorf("machine: L1 larger than L2 violates inclusion")
	}
	return nil
}

// Proc is one processor with its private cache hierarchy. Node ID equals
// processor ID.
type Proc struct {
	ID int
	L1 *cache.Cache
	L2 *cache.Cache
}

// TxKind classifies the directory transactions reported through
// Machine.OnTransaction.
type TxKind uint8

const (
	// TxFetchRead is a read miss serviced at the home (FetchRead).
	TxFetchRead TxKind = iota
	// TxFetchWrite is a write miss or upgrade serviced at the home
	// (FetchWrite).
	TxFetchWrite
	// TxWriteback is a dirty eviction retiring at the home
	// (writebackToHome).
	TxWriteback
	// TxHomeMsg is a deferred bit-update message delivered at the home
	// (First_update, ROnly_update, read-first and first-write signals).
	TxHomeMsg
	// TxProcMsg is a directory-to-cache message delivered at a processor
	// (First_update_fail).
	TxProcMsg
)

func (k TxKind) String() string {
	switch k {
	case TxFetchRead:
		return "FetchRead"
	case TxFetchWrite:
		return "FetchWrite"
	case TxWriteback:
		return "Writeback"
	case TxHomeMsg:
		return "HomeMsg"
	case TxProcMsg:
		return "ProcMsg"
	}
	return fmt.Sprintf("TxKind(%d)", uint8(k))
}

// Stats counts protocol events machine-wide.
type Stats struct {
	Reads         uint64
	Writes        uint64
	L1Hits        uint64
	L2Hits        uint64
	Fetch2Hop     uint64 // includes local-home fills
	Fetch3Hop     uint64
	Upgrades      uint64
	Invalidations uint64
	Writebacks    uint64 // forced and eviction writebacks to home
	Messages      uint64 // deferred protocol messages (bit updates)
}

// Add folds another machine's counters into s (adaptive executions
// aggregate one machine per strategy).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.Fetch2Hop += o.Fetch2Hop
	s.Fetch3Hop += o.Fetch3Hop
	s.Upgrades += o.Upgrades
	s.Invalidations += o.Invalidations
	s.Writebacks += o.Writebacks
	s.Messages += o.Messages
}

// Machine is the simulated multiprocessor.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Space *mem.Space
	Procs []*Proc
	Dirs  []*directory.Directory
	Home  []sim.Server
	Stats Stats

	// DirTable is the dense directory storage shared by all home-node
	// views in Dirs (one flat table, partitioned by home tag).
	DirTable *directory.Table

	// Net is the interconnect carrying deferred protocol messages and
	// writeback traffic (see Config.Net). Read its Stats after a run;
	// mutating it mid-run is not supported.
	Net interconnect.Network

	// OnDirtyWriteback, if set, receives the access bits of every dirty
	// line that reaches its home (forced writebacks and evictions), so
	// the speculation layer can merge tag state into its directory
	// tables (Figure 6-(e)). owner is the processor that held the line
	// dirty; bits may be nil for plain lines.
	OnDirtyWriteback func(owner int, line mem.Addr, bits []abits.Word)

	// OnFail, if set, receives errors raised by deferred protocol
	// messages (speculation FAILs detected at a directory).
	OnFail func(err error)

	// OnTransaction, if set, is called after every directory transaction
	// completes: synchronous fetches (including failed ones), dirty
	// writebacks, and each deferred message delivery. proc is the
	// requester for fetches, the owner for writebacks, the source for
	// home messages and the destination for processor messages; line is
	// the line-aligned address involved. The invariant checker hangs off
	// this hook; the hook must not issue new transactions.
	OnTransaction func(kind TxKind, proc int, line mem.Addr)

	// MsgDelay, if set, perturbs the network latency of each deferred
	// protocol message: it receives the source and destination nodes and
	// the base one-way latency and returns the latency to use (values
	// below the base are clamped to it, preserving causality and the
	// per-pair FIFO assumption; see SendToHome). The interleaving fuzzer
	// uses this to explore cross-pair message orderings.
	MsgDelay func(from, to int, base sim.Time) sim.Time

	lineBytes mem.Addr

	// msgq holds in-flight deferred messages per (source, home) pair.
	// The paper's algorithms assume in-order delivery of messages; a
	// processor's synchronous transaction to a home therefore drains its
	// own earlier messages to that home first (see SendToHome).
	//
	// Rows are allocated lazily on a source's first deferred send: only
	// the speculation protocols send deferred messages, so most
	// processors of a wide machine never materialize a row, and the flat
	// Procs² slot array this replaces (24 MB of slice headers at 1024
	// processors, re-walked on every reset) is never paid. activeQ
	// remembers each queue that turned non-empty since the last reset,
	// so ResetMessages touches only queues that carried traffic.
	msgq    [][][]*pendingMsg
	activeQ []qref
	// msgPool recycles message slots; gen guards stale arrival events
	// against recycled slots.
	msgPool []*pendingMsg
	// wb holds the line a dirty owner writes back during a fetch, for the
	// home visit to read; keeping it here rather than on the stack stops
	// it escaping to the heap on every 3-hop fetch.
	wb cache.Line
}

// qref names one (source, home) message queue in activeQ.
type qref struct{ from, home int32 }

// pendingMsg is one in-flight deferred protocol message. gen increments on
// every recycle so that an arrival event scheduled for a previous use of
// the slot recognizes itself as stale. from and line identify the message
// for the OnTransaction hook. The handler is a (fn, arg) pair rather
// than a closure so that hot senders can pass a top-level function and a
// pooled argument without allocating.
type pendingMsg struct {
	fn   func(arg any) error
	arg  any
	from int
	line mem.Addr
	done bool
	gen  uint32
}

// getMsg takes a message slot from the pool (or allocates one).
func (m *Machine) getMsg(from int, line mem.Addr, fn func(any) error, arg any) *pendingMsg {
	if n := len(m.msgPool); n > 0 {
		msg := m.msgPool[n-1]
		m.msgPool = m.msgPool[:n-1]
		msg.fn = fn
		msg.arg = arg
		msg.from = from
		msg.line = line
		msg.done = false
		return msg
	}
	return &pendingMsg{fn: fn, arg: arg, from: from, line: line}
}

// putMsg retires a delivered (or discarded) message slot into the pool.
func (m *Machine) putMsg(msg *pendingMsg) {
	msg.fn = nil
	msg.arg = nil
	msg.done = true
	msg.gen++
	m.msgPool = append(m.msgPool, msg)
}

// queueFor returns the (from, home) message queue, materializing the
// source's row on its first deferred send. The returned pointer stays
// valid for the machine's lifetime (rows are never reallocated).
func (m *Machine) queueFor(from, home int) *[]*pendingMsg {
	row := m.msgq[from]
	if row == nil {
		row = make([][]*pendingMsg, m.Cfg.Procs)
		m.msgq[from] = row
	}
	return &row[home]
}

// homeDepthRing bounds the per-home queue-depth ring (sim.Server
// TrackDepth capacity). Depth counts saturate there; timing is unaffected.
const homeDepthRing = 256

// New builds a machine; the configuration must be valid.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ncfg := cfg.Net
	ncfg.Nodes = cfg.Procs
	net, err := interconnect.New(ncfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:       cfg,
		Eng:       sim.NewEngine(),
		Space:     mem.NewSpace(cfg.Procs),
		Procs:     make([]*Proc, cfg.Procs),
		Dirs:      make([]*directory.Directory, cfg.Procs),
		Home:      make([]sim.Server, cfg.Procs),
		Net:       net,
		DirTable:  directory.NewTable(cfg.L1.LineBytes, cfg.Procs, cfg.DirMode),
		lineBytes: mem.Addr(cfg.L1.LineBytes),
		msgq:      make([][][]*pendingMsg, cfg.Procs),
	}
	// One L1 and one L2 frame block per cache.BlockWidth processors, so
	// neighbouring processors' frames for one set sit side by side.
	for lo := 0; lo < cfg.Procs; lo += cache.BlockWidth {
		w := min(cache.BlockWidth, cfg.Procs-lo)
		l1, l2 := cache.NewBlock(cfg.L1, w), cache.NewBlock(cfg.L2, w)
		for j := range w {
			i := lo + j
			m.Procs[i] = &Proc{ID: i, L1: l1[j], L2: l2[j]}
			m.Dirs[i] = directory.NewShared(i, m.DirTable)
			m.Home[i].TrackDepth(homeDepthRing)
		}
	}
	return m, nil
}

// Release returns the caches' frame blocks and access-bit windows to
// their pool. The machine must not simulate afterwards; call it once its
// final stats have been collected.
func (m *Machine) Release() {
	for _, p := range m.Procs {
		p.L1.Release()
		p.L2.Release()
	}
}

// HomeStats summarizes directory/memory-server queueing across all home
// nodes: how often transactions serialized behind a busy home and the
// deepest queue any home built.
type HomeStats struct {
	Requests   uint64
	Stalls     uint64 // transactions that arrived at a busy home
	BusyCycles sim.Time
	WaitCycles sim.Time
	// MaxQueueDepth is the deepest home queue observed (transactions in
	// the system at an arrival; 1 = no queueing ever), and MaxQueueHome
	// the home node where it occurred (-1 when no home was ever visited).
	MaxQueueDepth int
	MaxQueueHome  int
}

// Add folds another machine's home-queue stats into s: counters sum,
// the depth high-water mark takes the max (carrying its home node).
// Adaptive executions aggregate their per-strategy machines through
// here.
func (s *HomeStats) Add(o HomeStats) {
	s.Requests += o.Requests
	s.Stalls += o.Stalls
	s.BusyCycles += o.BusyCycles
	s.WaitCycles += o.WaitCycles
	if o.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = o.MaxQueueDepth
		s.MaxQueueHome = o.MaxQueueHome
	}
}

// HomeStats aggregates the per-home servers. Only meaningful with
// Config.Contention (without it homes are never acquired).
func (m *Machine) HomeStats() HomeStats {
	hs := HomeStats{MaxQueueHome: -1}
	for i := range m.Home {
		h := &m.Home[i]
		hs.Requests += h.Requests
		hs.Stalls += h.Stalls
		hs.BusyCycles += h.BusyCycles
		hs.WaitCycles += h.WaitCycles
		if h.MaxDepth > hs.MaxQueueDepth {
			hs.MaxQueueDepth = h.MaxDepth
			hs.MaxQueueHome = i
		}
	}
	return hs
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// LineAddr returns the line-aligned base of a.
func (m *Machine) LineAddr(a mem.Addr) mem.Addr { return a &^ (m.lineBytes - 1) }

// LineBytes returns the coherence line size.
func (m *Machine) LineBytes() int { return int(m.lineBytes) }

// HomeOf returns the home node of address a.
func (m *Machine) HomeOf(a mem.Addr) int { return m.Space.HomeNode(a) }

// Dir returns the directory entry for the line containing a, at its home.
func (m *Machine) Dir(a mem.Addr) *directory.Entry {
	return m.Dirs[m.HomeOf(a)].Entry(m.LineAddr(a))
}

// homeVisit charges the queueing delay of one transaction at home node h
// arriving at time now, returning the delay.
func (m *Machine) homeVisit(h int, now sim.Time, occ sim.Time) sim.Time {
	if !m.Cfg.Contention {
		return 0
	}
	start := m.Home[h].Acquire(now, occ)
	return start - now
}

// FlushCaches empties every cache (dirty lines are handed to
// OnDirtyWriteback) and resets directory state. The paper flushes all
// caches between loop executions to mimic real conditions (§5.2). The
// flush is a state reset, not a timed operation.
func (m *Machine) FlushCaches() {
	for _, p := range m.Procs {
		owner := p.ID
		l2 := p.L2
		// Fold each dirty L1 line's (authoritative) state and bits into
		// its L2 copy before flushing, exactly as an eviction would;
		// the writeback below then carries the freshest tags.
		p.L1.FlushAll(func(l cache.Line) {
			if fr := l2.Lookup(l.Tag); fr != nil {
				fr.SetState(cache.Dirty)
				if l.Bits != nil {
					l2.SetBits(fr, l.Bits)
				}
			} else if m.OnDirtyWriteback != nil {
				m.OnDirtyWriteback(owner, l.Tag, l.Bits)
			}
		})
		l2.FlushAll(func(l cache.Line) {
			if m.OnDirtyWriteback != nil {
				m.OnDirtyWriteback(owner, l.Tag, l.Bits)
			}
		})
	}
	m.DirTable.Reset()
	for _, d := range m.Dirs {
		d.ResetView()
	}
	m.ResetMessages()
}

// ResetMessages discards all in-flight deferred messages. Used when a
// speculative execution is aborted or between loop executions; any engine
// events still scheduled for these messages become no-ops.
func (m *Machine) ResetMessages() {
	for _, r := range m.activeQ {
		qp := &m.msgq[r.from][r.home]
		for _, msg := range *qp {
			m.putMsg(msg)
		}
		*qp = (*qp)[:0]
	}
	m.activeQ = m.activeQ[:0]
}

// ClearAllBits applies the general access-bit reset to every cache (§4.1,
// beginning of a speculative loop).
func (m *Machine) ClearAllBits() {
	for _, p := range m.Procs {
		p.L1.ClearBits(nil, func(abits.Word) abits.Word { return 0 })
		p.L2.ClearBits(nil, func(abits.Word) abits.Word { return 0 })
	}
}

// ClearBitsRange applies a qualified reset: mutate runs on the access bits
// of every cached line whose address lies within [base, end) (§4.1,
// per-iteration reset of privatized lines, selected by address bits).
func (m *Machine) ClearBitsRange(p int, base, end mem.Addr, mutate func(abits.Word) abits.Word) {
	keep := func(line mem.Addr) bool { return line >= base && line < end }
	m.Procs[p].L1.ClearBits(keep, mutate)
	m.Procs[p].L2.ClearBits(keep, mutate)
}
