package check

import (
	"encoding/json"
	"fmt"

	"specrt/internal/core"
	"specrt/internal/interconnect"
	"specrt/internal/policy"
)

// OrdersPerStream is how many delivery orders Explore tries per generated
// stream: enough to see several interleavings of the same trace without
// starving stream-shape diversity.
const OrdersPerStream = 4

// Reproducer pins down one failing replay: re-running Replay with these
// inputs reproduces the violation deterministically.
type Reproducer struct {
	Stream    *Stream          `json:"stream"`
	OrderSeed uint64           `json:"orderSeed"`
	Inject    core.InjectedBug `json:"inject,omitempty"`
	// Topology is the interconnect the failing replay ran on (zero value:
	// ideal, the default).
	Topology interconnect.Kind `json:"topology,omitempty"`
	// Director names the adaptive-dispatch director that chose the
	// stream's protocol when the violation was found (empty for classic
	// exploration). Replay does not consult it — the chosen protocol is
	// already baked into the stream, so the case replays exactly — but
	// round-tripping it preserves provenance, like the stream's
	// processor count.
	Director string `json:"director,omitempty"`
	// Violation is informational (what the original run reported).
	Violation string `json:"violation,omitempty"`
}

// Marshal renders the reproducer as indented JSON.
func (r *Reproducer) Marshal() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}

// ParseReproducer loads a reproducer written by Marshal.
func ParseReproducer(b []byte) (*Reproducer, error) {
	var r Reproducer
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("check: bad reproducer: %w", err)
	}
	if r.Stream == nil {
		return nil, fmt.Errorf("check: reproducer has no stream")
	}
	if err := r.Stream.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Summary aggregates an Explore run.
type Summary struct {
	Replays        int
	Streams        int
	DistinctOrders int // distinct OrderHash values seen
	Transactions   uint64
	HWFailures     int // replays where speculation failed (matching the oracle)
	// First failing replay, if any.
	Bad *Reproducer
}

// Explore replays generated streams — a fresh stream every
// OrdersPerStream replays, a fresh delivery order every replay — until it
// has witnessed at least seeds distinct delivery orders, returning
// aggregate statistics and stopping early at the first violation. Two
// replays count as the same order only when their transaction-order
// hashes collide (e.g. a stream that fails speculation on its first
// access runs identically under every seed); Explore compensates by
// running extra replays, up to 3*seeds in total.
// progress, if non-nil, is called after every replay.
func Explore(baseSeed uint64, seeds int, sc Scale, inject core.InjectedBug, progress func(done int, sum *Summary)) (*Summary, error) {
	return ExploreOn(baseSeed, seeds, sc, inject, interconnect.Ideal, progress)
}

// ExploreOn is Explore with every replay routed over the chosen
// interconnect topology (see ReplayOn).
func ExploreOn(baseSeed uint64, seeds int, sc Scale, inject core.InjectedBug, topo interconnect.Kind, progress func(done int, sum *Summary)) (*Summary, error) {
	return explore(baseSeed, seeds, sc, inject, topo, nil, progress)
}

// ExploreAdaptive is ExploreOn with a policy director steering each
// generated stream's protocol, mirroring the run layer's adaptive
// dispatch: every replay's speculation outcome feeds a policy.History,
// and when the director retreats from privatization the next
// privatization-capable stream is demoted to the non-privatization
// protocol before replay (iteration numbers zeroed, read-in/copy-out
// off — the same re-protocol rewrite run.strategyVariant performs).
// A violation's reproducer records the director name, so fuzz failures
// found under adaptive dispatch replay exactly and carry their
// provenance.
func ExploreAdaptive(baseSeed uint64, seeds int, sc Scale, kind policy.DirectorKind, topo interconnect.Kind, progress func(done int, sum *Summary)) (*Summary, error) {
	d, err := policy.New(kind, policy.Decision{Strategy: policy.HWPriv})
	if err != nil {
		return nil, err
	}
	return explore(baseSeed, seeds, sc, core.InjectNone, topo, d, progress)
}

func explore(baseSeed uint64, seeds int, sc Scale, inject core.InjectedBug, topo interconnect.Kind, d policy.Director, progress func(done int, sum *Summary)) (*Summary, error) {
	sum := &Summary{}
	orders := make(map[uint64]struct{}, seeds)
	var hist *policy.History
	if d != nil {
		hist = policy.NewHistory(0)
	}
	var s *Stream
	for i := 0; sum.DistinctOrders < seeds && i < 3*seeds; i++ {
		if i%OrdersPerStream == 0 {
			s = Generate(baseSeed+uint64(i/OrdersPerStream), sc)
			sum.Streams++
			if d != nil && s.Priv {
				if dec := d.Decide(hist); dec.Strategy != policy.HWPriv {
					s.demoteToNonPriv()
				}
			}
		}
		orderSeed := baseSeed ^ (uint64(i)*0x9e37_79b9 + 1)
		rep, err := ReplayOn(s, orderSeed, inject, topo)
		if err != nil {
			return sum, err
		}
		sum.Replays++
		sum.Transactions += rep.Transactions
		orders[rep.OrderHash] = struct{}{}
		sum.DistinctOrders = len(orders)
		if rep.HWFailed && !rep.OracleMismatch() {
			sum.HWFailures++
		}
		if hist != nil {
			strat := policy.HWNonPriv
			if s.Priv {
				strat = policy.HWPriv
			}
			hist.Record(policy.Outcome{
				Strategy: strat, Failed: rep.HWFailed, Cycles: int64(rep.Transactions),
			})
		}
		if v := rep.Violation(); v != nil {
			sum.Bad = &Reproducer{Stream: s, OrderSeed: orderSeed, Inject: inject,
				Topology: topo, Violation: v.Error()}
			if d != nil {
				sum.Bad.Director = d.Name()
			}
			return sum, nil
		}
		if progress != nil {
			progress(i+1, sum)
		}
	}
	return sum, nil
}
