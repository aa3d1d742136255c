package policy

// Confidence counter bounds (MDPT-style 2-bit saturating counter): a
// success increments by one, a failure knocks the counter down by two,
// so one failure after long success drops to "shaky" and two in a row
// reach "don't speculate". A new loop starts at ConfInit — weakly
// confident, so the first instance speculates.
const (
	ConfMax  = 3
	ConfInit = 2
)

// ewmaSnapFactor bounds how far an observation may sit from the stored
// mean before the mean snaps to it outright (phase-change detector):
// beyond 2x in either direction the history is stale, not noisy.
const ewmaSnapFactor = 2

// History is one loop's record of how its past instances behaved under
// each strategy, and the only input a Director decides from. One
// adaptive run keeps one History.
type History struct {
	runs   [NumStrategies]int   // instances run under the strategy
	fails  [NumStrategies]int   // instances whose speculation failed
	cycles [NumStrategies]int64 // smoothed observed cycles (0 = never run)

	instances int // instances recorded
	conf      int // saturating confidence counter [0, ConfMax]
	// baseChunk is the workload's own dynamic chunk size (0 = static or
	// unknown), so directors can scale it rather than invent absolute
	// sizes.
	baseChunk int
}

// NewHistory returns an empty history for a loop whose own chunk size
// is baseChunk.
func NewHistory(baseChunk int) *History {
	return &History{conf: ConfInit, baseChunk: baseChunk}
}

// Record folds one completed instance's outcome into the history:
// strategy counters, the smoothed cycle estimate, and the shared
// confidence counter (success +1, failure -2, saturating).
func (h *History) Record(o Outcome) {
	s := o.Strategy
	h.runs[s]++
	if o.Failed {
		h.fails[s]++
	}
	h.cycles[s] = smooth(h.cycles[s], o.Cycles, h.runs[s] == 1)
	h.instances++
	if s == Serial {
		// A serial instance says nothing about speculation: leaving the
		// counter alone here is what makes the ladder's Level 0 stable
		// (otherwise serial successes would re-arm speculation every
		// other instance and a never-parallel loop would oscillate).
		return
	}
	if o.Failed {
		h.conf = max(h.conf-2, 0)
	} else if h.conf < ConfMax {
		h.conf++
	}
}

// smooth updates a cost estimate: the first observation seeds it, an
// observation more than ewmaSnapFactor away replaces it (the loop
// changed phase; averaging toward it would lag for many instances), and
// anything else averages in with weight 1/2.
func smooth(old, obs int64, first bool) int64 {
	if first || old <= 0 {
		return obs
	}
	if obs > ewmaSnapFactor*old || obs < old/ewmaSnapFactor {
		return obs
	}
	return (old + obs) / 2
}

// Instances returns how many instances of this loop have been recorded.
func (h *History) Instances() int { return h.instances }

// Runs returns how many recorded instances ran under s.
func (h *History) Runs(s Strategy) int { return h.runs[s] }

// Fails returns how many of those failed speculation.
func (h *History) Fails(s Strategy) int { return h.fails[s] }

// PredCycles returns the smoothed cycles-per-instance estimate for s
// (0 when s never ran).
func (h *History) PredCycles(s Strategy) int64 { return h.cycles[s] }

// Conf returns the saturating confidence counter in [0, ConfMax].
func (h *History) Conf() int { return h.conf }

// BaseChunk returns the workload's own chunk size (0 = static or
// unknown).
func (h *History) BaseChunk() int { return h.baseChunk }
