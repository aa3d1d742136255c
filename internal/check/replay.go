package check

import (
	"fmt"
	"math/rand"

	"specrt/internal/core"
	"specrt/internal/interconnect"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Report is the outcome of one Replay.
type Report struct {
	// OrderHash fingerprints the delivery order this replay explored.
	OrderHash uint64
	// Transactions is the number of directory transactions observed.
	Transactions uint64
	// HWFailed is the hardware verdict; ExpectedFail the LRPD oracle's.
	HWFailed     bool
	ExpectedFail bool
	// Failure is the hardware failure, when HWFailed.
	Failure *core.Failure
	// InvariantErr is the first invariant violation, if any.
	InvariantErr error
}

// OracleMismatch reports whether the hardware verdict disagrees with the
// software oracle.
func (r *Report) OracleMismatch() bool { return r.HWFailed != r.ExpectedFail }

// Violation returns the replay's defect as an error: an invariant
// violation, or an oracle mismatch, or nil for a clean replay.
func (r *Report) Violation() error {
	if r.InvariantErr != nil {
		return r.InvariantErr
	}
	if r.OracleMismatch() {
		return fmt.Errorf("oracle mismatch: hardware failed=%t (failure: %v), software oracle failed=%t",
			r.HWFailed, r.Failure, r.ExpectedFail)
	}
	return nil
}

// Replay executes the stream on a freshly built machine under the
// delivery order selected by orderSeed, with the invariant checker
// attached, and cross-checks the verdict against the LRPD oracle.
//
// orderSeed determines, deterministically: how processors interleave
// (each processor's program order is preserved), where the event engine
// is pumped between accesses (so deferred messages land at varied points
// of the access stream), the permutation of same-cycle event delivery
// (sim.SeededOrder), and per-message network latency jitter
// (machine.MsgDelay). Two replays with the same stream and seed are
// identical; different seeds explore different transaction interleavings.
func Replay(s *Stream, orderSeed uint64, inject core.InjectedBug) (*Report, error) {
	return ReplayOn(s, orderSeed, inject, interconnect.Ideal)
}

// ReplayOn is Replay with the deferred protocol messages routed over the
// chosen interconnect topology, so the fuzzer also explores the delivery
// timings a queued network produces. The seeded MsgDelay jitter composes
// on top of the topology's latency (the larger of the two wins).
func ReplayOn(s *Stream, orderSeed uint64, inject core.InjectedBug, topo interconnect.Kind) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig(s.Procs)
	cfg.Contention = false
	cfg.Net.Kind = topo
	m := machine.MustNew(cfg)
	c := core.NewController(m)
	c.Inject = inject
	var async *core.Failure
	m.OnFail = func(err error) {
		if f, ok := err.(*core.Failure); ok && async == nil {
			async = f
		}
	}
	failed := func() *core.Failure {
		if f := c.Failed(); f != nil {
			return f
		}
		return async
	}

	r := m.Space.Alloc("A", s.Elems, s.ElemSize, mem.RoundRobin, 0)
	var arr *core.Array
	if s.Priv {
		arr = c.AddPriv(r, core.PrivCopies(m.Space, r, m.Cfg.Procs), s.RICO)
	} else {
		arr = c.AddNonPriv(r)
	}

	rng := rand.New(rand.NewSource(int64(orderSeed)))
	jitter := rand.New(rand.NewSource(int64(orderSeed) ^ 0x5bf0_3635)) // decouple from interleaving draws
	m.Eng.SetOrderPolicy(sim.SeededOrder(orderSeed))
	m.MsgDelay = func(from, to int, base sim.Time) sim.Time {
		return base + sim.Time(jitter.Intn(int(3*base)+1))
	}

	chk := Attach(m, c)
	c.Arm()
	chk.Rearm()

	// Interleave the per-processor subsequences under rng, pumping the
	// engine at random points so deferred messages race with later
	// accesses in different ways on every seed.
	perProc := make([][]Access, s.Procs)
	for _, a := range s.Accesses {
		perProc[a.Proc] = append(perProc[a.Proc], a)
	}
	idx := make([]int, s.Procs)
	curIter := make([]int, s.Procs)
	avail := make([]int, 0, s.Procs)
	for failed() == nil {
		avail = avail[:0]
		for p := 0; p < s.Procs; p++ {
			if idx[p] < len(perProc[p]) {
				avail = append(avail, p)
			}
		}
		if len(avail) == 0 {
			break
		}
		p := avail[rng.Intn(len(avail))]
		a := perProc[p][idx[p]]
		idx[p]++
		if s.Priv && curIter[p] != a.Iter {
			curIter[p] = a.Iter
			c.BeginIteration(p, a.Iter)
		}
		if a.Write {
			c.Write(p, r.ElemAddr(a.Elem)) //nolint:errcheck // failure observed via failed()
		} else {
			c.Read(p, r.ElemAddr(a.Elem)) //nolint:errcheck
		}
		if rng.Intn(3) == 0 {
			m.Eng.RunUntil(m.Eng.Now() + sim.Time(rng.Intn(800)))
		}
	}

	// Deliver everything still in flight, audit the quiesced state, then
	// flush: dirty lines merge their tag claims into the directory (the
	// HW scheme's loop-end writeback), which can itself detect a FAIL.
	m.Eng.Run()
	rep := &Report{ExpectedFail: s.ExpectedFail()}
	if failed() == nil {
		rep.InvariantErr = chk.CheckQuiesced()
	} else {
		rep.InvariantErr = chk.Err()
	}
	m.FlushCaches()
	if s.Priv && s.CopyOut && failed() == nil {
		for p := 0; p < s.Procs; p++ {
			c.CopyOut(arr, p)
		}
	}
	rep.Failure = failed()
	rep.HWFailed = rep.Failure != nil
	rep.OrderHash = chk.OrderHash()
	rep.Transactions = chk.Transactions()
	c.Disarm()
	return rep, nil
}
