package policy

// The three directors. All of them are stateless values whose Decide is
// a pure function of the History.

// probePeriod is how often the learned directors re-test speculation
// after retreating to serial: every probePeriod-th instance of a
// zero-confidence loop runs the preferred speculative strategy once.
// Too small and a never-parallel loop keeps paying failed speculation;
// too large and a loop whose racy phase ends stays serial for longer.
// 8 keeps the steady-state overhead on a never-parallel loop under the
// cost of one failed speculation per eight serial instances.
const probePeriod = 8

// demoteFails is how many failures of the preferred hardware strategy
// the threshold director tolerates before preferring the other one.
const demoteFails = 2

// staticDirector pins every instance to one decision: the paper
// baseline, where the scheme is chosen before the program runs and
// never revisited.
type staticDirector struct{ d Decision }

// NewStatic returns the static (paper baseline) director: it always
// decides d, ignoring history.
func NewStatic(d Decision) Director { return staticDirector{d} }

func (s staticDirector) Name() string             { return "static:" + s.d.Strategy.String() }
func (s staticDirector) Decide(*History) Decision { return s.d }

// thresholdDirector is the STU-style speculation ladder driven by the
// history's MDPT-style saturating confidence counter:
//
//	Level 2 (conf >= 2): speculate under the preferred hardware
//	        strategy at the workload's own chunking.
//	Level 1 (conf == 1): keep speculating, but coarsen dynamic chunks
//	        2x — larger blocks mean fewer cross-processor iteration
//	        pairs for the processor-wise test to trip on and less
//	        dispenser traffic, a hedge while confidence is shaky.
//	Level 0 (conf == 0): run serially; every probePeriod-th instance
//	        probes the preferred strategy once so the loop can climb
//	        back up when its racy phase ends.
//
// The preferred hardware strategy starts as non-privatization (cheaper:
// no copy-out) and demotes to privatization once non-privatization has
// failed demoteFails times while privatization is untried or failing
// less often — the signature of a loop that writes shared scratch
// storage it never reads across iterations (§3.3's target).
type thresholdDirector struct{}

// NewThreshold returns the confidence-ladder director.
func NewThreshold() Director { return thresholdDirector{} }

func (thresholdDirector) Name() string { return "threshold" }

func (thresholdDirector) Decide(h *History) Decision {
	pref := preferredHW(h)
	switch {
	case h.Conf() >= 2:
		return Decision{Strategy: pref}
	case h.Conf() == 1:
		return Decision{Strategy: pref, Chunk: 2 * h.BaseChunk()}
	}
	// Level 0: serial, with a periodic probe.
	if (h.Instances()+1)%probePeriod == 0 {
		return Decision{Strategy: pref, Chunk: 2 * h.BaseChunk()}
	}
	return Decision{Strategy: Serial}
}

// preferredHW picks between the two hardware strategies from failure
// history: non-privatization until it has failed demoteFails times and
// privatization is untried or failing at a lower rate.
func preferredHW(h *History) Strategy {
	fn, rn := h.Fails(HWNonPriv), h.Runs(HWNonPriv)
	fp, rp := h.Fails(HWPriv), h.Runs(HWPriv)
	if fn >= demoteFails {
		if rp == 0 || fp*rn < fn*rp { // cross-multiplied failure rates
			return HWPriv
		}
	}
	return HWNonPriv
}

// costDirector predicts each strategy's cycles for the next instance
// from the smoothed per-strategy observations and picks the cheapest.
// Untried strategies are explored first (speculative ones before
// serial, so a parallel loop reaps speedup from instance one); once on
// serial, a periodic probe of the cheapest speculative estimate keeps
// the model from going stale when the loop's behaviour changes.
type costDirector struct{}

// NewCost returns the predicted-cycles director.
func NewCost() Director { return costDirector{} }

func (costDirector) Name() string { return "cost" }

// exploreOrder visits untried strategies optimistically: hardware
// first (cheap failure detection), software LRPD next, serial last.
var exploreOrder = []Strategy{HWNonPriv, HWPriv, SWLRPD, Serial}

func (costDirector) Decide(h *History) Decision {
	for _, s := range exploreOrder {
		if h.Runs(s) == 0 {
			return Decision{Strategy: s}
		}
	}
	best := argminCycles(h, Strategies)
	if best == Serial && (h.Instances()+1)%probePeriod == 0 {
		// Re-probe the cheapest speculative estimate: serial's estimate
		// never changes, so without this the model can never observe a
		// racy phase ending.
		return Decision{Strategy: argminCycles(h, Strategies[1:])}
	}
	return Decision{Strategy: best}
}

// argminCycles returns the candidate with the lowest predicted cycles;
// ties break toward the earlier (cheaper-risk) candidate.
func argminCycles(h *History, candidates []Strategy) Strategy {
	best, bestCycles := candidates[0], h.PredCycles(candidates[0])
	for _, s := range candidates[1:] {
		if c := h.PredCycles(s); c < bestCycles {
			best, bestCycles = s, c
		}
	}
	return best
}
