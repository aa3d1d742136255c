package machine

import (
	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/directory"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Probe looks the address up in p's cache hierarchy. On an L1 hit it
// returns the L1 frame and the L1 latency. On an L2 hit the line is
// promoted into L1 (carrying its access bits) and the L1 frame and L2
// latency are returned. On a full miss it returns (nil, 0, false).
func (m *Machine) Probe(p int, a mem.Addr) (*cache.Frame, sim.Time, bool) {
	pr := m.Procs[p]
	if fr := pr.L1.Probe(a); fr != nil {
		m.Stats.L1Hits++
		return fr, m.Cfg.Lat.L1Hit, true
	}
	if fr := pr.L2.Probe(a); fr != nil {
		m.Stats.L2Hits++
		l1fr := m.installL1(p, a, fr.State(), pr.L2.Bits(fr))
		return l1fr, m.Cfg.Lat.L2Hit, true
	}
	return nil, 0, false
}

// installL1 places a line in L1, merging any displaced line back into L2
// (or straight to home if its L2 copy is gone).
func (m *Machine) installL1(p int, line mem.Addr, st cache.State, bits []abits.Word) *cache.Frame {
	pr := m.Procs[p]
	victim, evicted := pr.L1.Install(line, st, bits)
	if evicted {
		if l2fr := pr.L2.Lookup(victim.Tag); l2fr != nil {
			// Inclusion: fold the (possibly newer) L1 state and bits
			// into the L2 copy.
			if victim.State == cache.Dirty {
				l2fr.SetState(cache.Dirty)
			}
			if victim.Bits != nil {
				pr.L2.SetBits(l2fr, victim.Bits)
			}
		} else if victim.State == cache.Dirty {
			m.writebackToHome(p, victim)
		}
	}
	return pr.L1.Lookup(line)
}

// installBoth places a fetched line into L2 and L1.
func (m *Machine) installBoth(p int, line mem.Addr, st cache.State, bits []abits.Word) *cache.Frame {
	pr := m.Procs[p]
	victim, evicted := pr.L2.Install(line, st, bits)
	if evicted {
		// Inclusion: the L1 copy (if any) holds the freshest state.
		if l1old, ok := pr.L1.Invalidate(victim.Tag); ok {
			freshest(&victim, l1old)
		}
		if victim.State == cache.Dirty {
			m.writebackToHome(p, victim)
		}
	}
	return m.installL1(p, line, st, bits)
}

// writebackToHome retires a dirty evicted line: the home directory entry
// returns to Uncached and the line's access-bit tags are merged into the
// home's tables (Figure 6-(e): "Home receives a dirty line displaced from
// a cache"). The directory state change is immediate; the traffic cost is
// charged to the home server.
func (m *Machine) writebackToHome(owner int, victim cache.Line) {
	m.Stats.Writebacks++
	h := m.HomeOf(victim.Tag)
	e := m.Dirs[h].Entry(victim.Tag)
	m.Dirs[h].ClearToUncached(e)
	if m.Cfg.Contention {
		// The dirty line crosses the network to its home; msgLatency
		// reserves the path (and applies MsgDelay) exactly as for
		// deferred messages, reducing to the flat MsgHop on the Ideal
		// topology.
		m.Home[h].Acquire(m.Eng.Now()+m.msgLatency(owner, h), m.Cfg.Lat.HomeOccLine)
	}
	if m.OnDirtyWriteback != nil {
		m.OnDirtyWriteback(owner, victim.Tag, victim.Bits)
	}
	m.notify(TxWriteback, owner, victim.Tag)
}

// notify reports a completed transaction to the OnTransaction hook.
func (m *Machine) notify(kind TxKind, proc int, line mem.Addr) {
	if m.OnTransaction != nil {
		m.OnTransaction(kind, proc, line)
	}
}

// msgLatency returns the one-way latency of a deferred message from node
// `from` to node `to`: the interconnect's (possibly loaded) delivery
// latency for the pair, after any MsgDelay perturbation. The perturbed
// value is clamped to the network latency of *this* pair — self-sends
// (from == to) included, whose floor can differ from a remote pair's
// under non-ideal topologies — so a message can never arrive before it
// physically could, and per-pair FIFO delivery is preserved. Under the
// Ideal topology the network latency is exactly Lat.MsgHop, reproducing
// the flat-hop model bit-for-bit.
func (m *Machine) msgLatency(from, to int) sim.Time {
	lat := m.Net.Send(from, to, m.Eng.Now(), m.Cfg.Lat.MsgHop)
	if m.MsgDelay == nil {
		return lat
	}
	if d := m.MsgDelay(from, to, lat); d > lat {
		return d
	}
	return lat
}

// takeProcLine removes the line from p's caches and returns the freshest
// copy (L1 bits and state win over L2 under inclusion). L1 ⊆ L2 holds by
// construction — every L1 install follows an L2 install or hit, and
// every L2 removal also removes the L1 copy (check's coh-inclusion) — so
// an L2 miss means p holds no copy and L1 is not probed.
func (m *Machine) takeProcLine(p int, line mem.Addr) (cache.Line, bool) {
	pr := m.Procs[p]
	l2, ok := pr.L2.Invalidate(line)
	if !ok {
		return cache.Line{}, false
	}
	if l1, ok := pr.L1.Invalidate(line); ok {
		freshest(&l2, l1)
	}
	return l2, true
}

// downgradeProcLine moves p's copy of line to Clean and returns the
// freshest contents for the writeback, probing L1 only on an L2 hit as
// takeProcLine does.
func (m *Machine) downgradeProcLine(p int, line mem.Addr) (cache.Line, bool) {
	pr := m.Procs[p]
	l2, ok := pr.L2.Downgrade(line)
	if !ok {
		return cache.Line{}, false
	}
	if l1, ok := pr.L1.Downgrade(line); ok {
		freshest(&l2, l1)
	}
	return l2, true
}

// freshest folds p's L1 copy of a line into its L2 copy's contents: a
// dirty L1 state and L1 bits win.
func freshest(l2 *cache.Line, l1 cache.Line) {
	if l1.State == cache.Dirty {
		l2.State = cache.Dirty
	}
	if l1.Bits != nil {
		l2.Bits = l1.Bits
	}
}

// HomeVisitFn runs while a fetch transaction is being serviced at the home
// directory, after any dirty owner's copy has been written back; wb is the
// written-back line (nil when there was none) and wbOwner the processor
// that held it dirty. It returns the access bits to install with the line
// in the requester's caches (nil for a plain line) and a non-nil error to
// abort the transaction (a speculation FAIL).
type HomeVisitFn func(wb *cache.Line, wbOwner int) ([]abits.Word, error)

// FetchRead services a read miss: the line containing a is brought into
// p's caches in Clean state. If atHome is nil the plain protocol applies
// (writeback bits are forwarded to OnDirtyWriteback).
func (m *Machine) FetchRead(p int, a mem.Addr, atHome HomeVisitFn) (sim.Time, error) {
	line := m.LineAddr(a)
	h := m.HomeOf(line)
	m.DrainMessages(p, h) // in-order delivery per (source, home)
	lat := m.homeVisit(h, m.Eng.Now(), m.Cfg.Lat.HomeOccLine)

	e := m.Dirs[h].Entry(line)
	var wb *cache.Line
	wbOwner := -1
	threeHop := false
	if e.State == directory.Dirty && int(e.Owner) != p {
		// Send writeback request to owner node; owner keeps a Clean copy.
		m.Stats.Writebacks++
		m.Dirs[h].Stats.WritebackReqs++
		owner := int(e.Owner)
		if old, ok := m.downgradeProcLine(owner, line); ok {
			m.wb, wb = old, &m.wb
			wbOwner = owner
		}
		m.Dirs[h].ClearToUncached(e)
		m.Dirs[h].AddSharer(e, owner)
		threeHop = true
	}

	bits, err := m.visitHome(line, wb, wbOwner, atHome)
	if err != nil {
		m.notify(TxFetchRead, p, line)
		return lat + m.hopLatency(p, h, threeHop), err
	}

	if threeHop {
		m.Stats.Fetch3Hop++
	} else {
		m.Stats.Fetch2Hop++
	}
	m.Dirs[h].AddSharer(e, p)
	m.installBoth(p, line, cache.Clean, bits)
	m.notify(TxFetchRead, p, line)
	return lat + m.hopLatency(p, h, threeHop), nil
}

// FetchWrite services a write miss or an upgrade from Clean: other copies
// are invalidated, a dirty owner is forced to write back, and the line is
// installed Dirty in p's caches. The returned latency is the transaction
// latency; callers model non-stalling writes by charging the processor
// only a single cycle.
func (m *Machine) FetchWrite(p int, a mem.Addr, atHome HomeVisitFn) (sim.Time, error) {
	line := m.LineAddr(a)
	h := m.HomeOf(line)
	m.DrainMessages(p, h) // in-order delivery per (source, home)
	lat := m.homeVisit(h, m.Eng.Now(), m.Cfg.Lat.HomeOccLine)

	e := m.Dirs[h].Entry(line)
	var wb *cache.Line
	wbOwner := -1
	threeHop := false
	upgrade := false
	switch e.State {
	case directory.Shared:
		d := m.Dirs[h]
		upgrade = d.HasSharer(e, p)
		// In coarse mode the represented set may be a superset of the
		// true sharers; invalidating a non-holder is a harmless no-op at
		// the cache (takeProcLine misses) but is still counted as sent,
		// which is exactly the extra traffic the coarse vector costs.
		d.ForEachSharer(e, func(s int) {
			if s == p {
				return
			}
			m.Stats.Invalidations++
			d.Stats.Invalidations++
			m.takeProcLine(s, line)
		})
	case directory.Dirty:
		if int(e.Owner) != p {
			m.Stats.Writebacks++
			m.Dirs[h].Stats.WritebackReqs++
			if old, ok := m.takeProcLine(int(e.Owner), line); ok {
				m.wb, wb = old, &m.wb
				wbOwner = int(e.Owner)
			}
			threeHop = true
		}
	}

	bits, err := m.visitHome(line, wb, wbOwner, atHome)
	if err != nil {
		m.notify(TxFetchWrite, p, line)
		return lat + m.hopLatency(p, h, threeHop), err
	}

	if upgrade {
		m.Stats.Upgrades++
	} else if threeHop {
		m.Stats.Fetch3Hop++
	} else {
		m.Stats.Fetch2Hop++
	}
	m.Dirs[h].SetDirty(e, p)
	// On an upgrade the requester keeps its own bits unless the home
	// supplied fresh ones.
	if upgrade && bits == nil {
		bits = m.LineBits(p, line)
	}
	m.installBoth(p, line, cache.Dirty, bits)
	m.notify(TxFetchWrite, p, line)
	return lat + m.hopLatency(p, h, threeHop), nil
}

// visitHome runs the home-side protocol hook, defaulting to the plain
// behaviour of merging writeback bits into the home tables.
func (m *Machine) visitHome(line mem.Addr, wb *cache.Line, wbOwner int, atHome HomeVisitFn) ([]abits.Word, error) {
	if atHome == nil {
		if wb != nil && m.OnDirtyWriteback != nil {
			m.OnDirtyWriteback(wbOwner, line, wb.Bits)
		}
		return nil, nil
	}
	return atHome(wb, wbOwner)
}

// hopLatency returns the unloaded latency of a fill observed by requester
// node p from home node h.
func (m *Machine) hopLatency(p, h int, threeHop bool) sim.Time {
	l := m.Cfg.Lat
	if threeHop {
		if p == h {
			return l.Remote2Hop // local home, remote dirty owner
		}
		return l.Remote3Hop
	}
	if p == h {
		return l.LocalMem
	}
	return l.Remote2Hop
}

// Read performs a plain (non-speculative) read by processor p and returns
// the latency the processor observes.
func (m *Machine) Read(p int, a mem.Addr) sim.Time {
	m.Stats.Reads++
	if _, lat, hit := m.Probe(p, a); hit {
		return lat
	}
	lat, _ := m.FetchRead(p, a, nil) // plain transactions cannot fail
	return lat
}

// Write performs a plain write by processor p. The returned latency is
// what the processor observes; per §5.1 processors do not stall on write
// misses, so it is the L1 hit time unless the line is already writable
// (or Config.StallWrites is set, for the ablation).
func (m *Machine) Write(p int, a mem.Addr) sim.Time {
	m.Stats.Writes++
	fr, _, hit := m.Probe(p, a)
	if hit && fr.State() == cache.Dirty {
		return m.Cfg.Lat.L1Hit
	}
	// Upgrade or fetch-exclusive proceeds without stalling the processor.
	lat, _ := m.FetchWrite(p, a, nil) // plain transactions cannot fail
	if m.Cfg.StallWrites {
		return lat
	}
	return m.Cfg.Lat.L1Hit
}

// WriteProcLatency returns what a processor is charged for a write whose
// transaction latency was lat.
func (m *Machine) WriteProcLatency(lat sim.Time) sim.Time {
	if m.Cfg.StallWrites {
		return lat
	}
	return m.Cfg.Lat.L1Hit
}

// SendToHome schedules fn to run at the home directory of a after the
// one-way message latency plus queueing. A non-nil error from fn is a
// speculation FAIL and is delivered to OnFail. Used for the protocol's
// non-stalling bit-update messages (First_update, ROnly_update, read-first
// and first-write signals).
//
// Delivery is in order per (source, home) pair, as the paper's algorithms
// assume: if the source processor issues a synchronous transaction to the
// same home while messages are in flight, the messages are delivered
// first (DrainMessages).
func (m *Machine) SendToHome(from int, a mem.Addr, fn func() error) {
	m.SendToHomeArg(from, a, callNoArg, fn)
}

// callNoArg adapts a plain closure to the (fn, arg) message form.
func callNoArg(x any) error { return x.(func() error)() }

// SendToHomeArg is SendToHome with the handler split into a function and
// its argument. Senders on the hot path pass a top-level function and a
// pooled argument, so enqueueing a message allocates nothing.
func (m *Machine) SendToHomeArg(from int, a mem.Addr, fn func(any) error, arg any) {
	m.Stats.Messages++
	h := m.HomeOf(a)
	q := m.queueFor(from, h)
	msg := m.getMsg(from, m.LineAddr(a), fn, arg)
	gen := msg.gen
	if len(*q) == 0 {
		m.activeQ = append(m.activeQ, qref{int32(from), int32(h)})
	}
	*q = append(*q, msg)
	m.Eng.Schedule(m.msgLatency(from, h), func() {
		if msg.gen != gen || msg.done {
			return // delivered early by a drain (slot may be recycled)
		}
		wait := m.homeVisit(h, m.Eng.Now(), m.Cfg.Lat.HomeOccMsg)
		if wait > 0 {
			m.Eng.Schedule(wait, func() {
				if msg.gen == gen && !msg.done {
					m.deliverThrough(q, msg)
				}
			})
		} else {
			m.deliverThrough(q, msg)
		}
	})
}

// deliverThrough delivers queued (source, home) messages in FIFO order up
// to and including msg. The queue is re-read every iteration: a handler
// may enqueue new messages for the same pair while we deliver, and those
// must survive behind the current tail.
func (m *Machine) deliverThrough(q *[]*pendingMsg, msg *pendingMsg) {
	for len(*q) > 0 {
		head := (*q)[0]
		*q = (*q)[1:]
		// Queued entries are always undelivered: every delivery path
		// removes the message from its queue before retiring it.
		last := head == msg
		head.done = true
		fn, arg, from, line := head.fn, head.arg, head.from, head.line
		m.putMsg(head)
		if err := fn(arg); err != nil && m.OnFail != nil {
			m.OnFail(err)
		}
		m.notify(TxHomeMsg, from, line)
		if last {
			break
		}
	}
}

// DrainMessages delivers all in-flight messages from processor p to home
// h immediately, preserving FIFO order. Synchronous transactions call this
// so they cannot overtake the processor's own earlier messages. The
// scheduled arrival events become stale no-ops (generation guard).
func (m *Machine) DrainMessages(p, h int) {
	row := m.msgq[p]
	if row == nil || len(row[h]) == 0 {
		return
	}
	q := row[h]
	// Detach the batch before delivering: a handler may enqueue new
	// messages for this pair, which must not alias the batch being
	// iterated. The backing array is restored for reuse afterwards if
	// nothing new arrived.
	row[h] = nil
	for _, msg := range q {
		// Queued entries are always undelivered (delivery always pops
		// first), so each is retired exactly once here.
		msg.done = true
		fn, arg, from, line := msg.fn, msg.arg, msg.from, msg.line
		m.putMsg(msg)
		if m.Cfg.Contention {
			m.Home[h].Acquire(m.Eng.Now(), m.Cfg.Lat.HomeOccMsg)
		}
		if err := fn(arg); err != nil && m.OnFail != nil {
			m.OnFail(err)
		}
		m.notify(TxHomeMsg, from, line)
	}
	if len(row[h]) == 0 {
		row[h] = q[:0]
	}
}

// SendToProc schedules fn to run at processor p's cache after the one-way
// message latency (directory → cache messages such as First_update_fail
// for the line containing a, sent by that line's home directory).
func (m *Machine) SendToProc(p int, a mem.Addr, fn func() error) {
	m.Stats.Messages++
	h := m.HomeOf(a)
	line := m.LineAddr(a)
	m.Eng.Schedule(m.msgLatency(h, p), func() {
		if err := fn(); err != nil && m.OnFail != nil {
			m.OnFail(err)
		}
		m.notify(TxProcMsg, p, line)
	})
}

// ChargeHomeTransfer models a protocol-engine line transfer between node p
// and the home of a (read-in and copy-out of the privatization protocol,
// §3.3) and returns its latency. No cache state changes.
func (m *Machine) ChargeHomeTransfer(p int, a mem.Addr) sim.Time {
	h := m.HomeOf(a)
	lat := m.homeVisit(h, m.Eng.Now(), m.Cfg.Lat.HomeOccLine)
	return lat + m.hopLatency(p, h, false)
}

// LineBits returns the access bits of p's freshest copy of line: the L1
// copy's when L1 holds the line, else the L2 copy's. It is nil when p
// holds no copy or its freshest copy carries no bits. Writes through the
// slice update that copy in place.
func (m *Machine) LineBits(p int, line mem.Addr) []abits.Word {
	pr := m.Procs[p]
	if fr := pr.L1.Lookup(line); fr != nil {
		return pr.L1.Bits(fr)
	}
	if fr := pr.L2.Lookup(line); fr != nil {
		return pr.L2.Bits(fr)
	}
	return nil
}

// SyncBitsToL2 writes the (mutated) access bits of a Clean L1 line through
// to its L2 copy so that inclusion keeps a single view. Dirty lines skip
// this: their bits travel with the eventual writeback.
func (m *Machine) SyncBitsToL2(p int, line mem.Addr, bits []abits.Word) {
	if fr := m.Procs[p].L2.Lookup(line); fr != nil {
		m.Procs[p].L2.SetBits(fr, bits)
	}
}
