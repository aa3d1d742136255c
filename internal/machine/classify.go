package machine

import (
	"specrt/internal/cache"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// One-pass classify-and-perform probes for the execution fast path
// (internal/cpu). An access is "fast" when performing it is locally
// deterministic: it hits in the processor's own hierarchy, issues no
// directory transaction or deferred message, cannot fail, and its
// latency does not depend on the current simulated time. A fast access
// is performed in place with exactly the statistics and state changes
// the stepped path's Read/Write would produce; anything else reports
// ok=false untouched and takes the stepped path.
//
// The probes use cache.Lookup (no hit/miss accounting, no L2→L1
// promotion) and then count and promote explicitly.

// PromoteIsLocal reports whether promoting line a into p's L1 would
// displace only state that folds back into the inclusive L2. Inclusion
// makes this true in steady state, but classification must not rely on
// an invariant: a dirty L1 victim with no L2 copy would write back to
// the home — a clock-reading, abort-capable transaction the fast path
// must never perform mid-run.
func (m *Machine) PromoteIsLocal(p int, a mem.Addr) bool {
	pr := m.Procs[p]
	v := pr.L1.SetOccupant(a)
	return v == nil || v.State != cache.Dirty || pr.L2.Lookup(v.Tag) != nil
}

// TryFastRead classifies and, when fast, performs a plain read in one
// pass, returning the latency the processor observes. It folds the
// classification and the hit arms of Read/Probe into a single hierarchy
// lookup; every statistic the stepped path would record is recorded here
// identically. ok=false performs nothing and counts nothing.
func (m *Machine) TryFastRead(p int, a mem.Addr) (sim.Time, bool) {
	pr := m.Procs[p]
	if fr := pr.L1.Lookup(a); fr != nil {
		m.Stats.Reads++
		pr.L1.Stats.Hits++
		m.Stats.L1Hits++
		return m.Cfg.Lat.L1Hit, true
	}
	fr := pr.L2.Lookup(a)
	if fr == nil || !m.PromoteIsLocal(p, a) {
		return 0, false
	}
	m.Stats.Reads++
	pr.L1.Stats.Misses++
	pr.L2.Stats.Hits++
	m.Stats.L2Hits++
	m.installL1(p, fr.Tag, fr.State, pr.L2.Bits(fr))
	return m.Cfg.Lat.L2Hit, true
}

// TryFastWrite is TryFastRead's store counterpart: only a hit on an
// already-dirty line completes without a directory transaction. The
// processor is charged the L1 hit time regardless of Config.StallWrites,
// mirroring Write's dirty-hit arm.
func (m *Machine) TryFastWrite(p int, a mem.Addr) (sim.Time, bool) {
	pr := m.Procs[p]
	if fr := pr.L1.Lookup(a); fr != nil {
		if fr.State != cache.Dirty {
			return 0, false // clean hit: upgrade at the home
		}
		m.Stats.Writes++
		pr.L1.Stats.Hits++
		m.Stats.L1Hits++
		return m.Cfg.Lat.L1Hit, true
	}
	fr := pr.L2.Lookup(a)
	if fr == nil || fr.State != cache.Dirty || !m.PromoteIsLocal(p, a) {
		return 0, false
	}
	m.Stats.Writes++
	pr.L1.Stats.Misses++
	pr.L2.Stats.Hits++
	m.Stats.L2Hits++
	m.installL1(p, fr.Tag, fr.State, pr.L2.Bits(fr))
	return m.Cfg.Lat.L1Hit, true
}
