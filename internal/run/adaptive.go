package run

import (
	"specrt/internal/core"
	"specrt/internal/policy"
)

// Adaptive execution: instead of Mode statically deciding every loop
// instance, a policy.Director chooses each instance's strategy (serial,
// software LRPD, hardware non-privatization or privatization, plus a
// chunk override) from the loop site's recorded history.
//
// Each strategy runs on its own lazily built session — its own machine,
// controller and schedule — because the schemes need different array
// protocols and instrumentation. That matches the system being modelled:
// switching strategy between instances means re-arming the hardware (or
// not), not morphing a live machine. Only strategies the director
// actually picks pay the session setup cost, and all per-strategy stats
// are folded into one Result at the end. The instance loop is execute,
// the one static runs use; validate admits every strategy's session
// before it starts.

// staticStrategy maps the configured mode to the strategy a static
// (paper baseline) director pins: the scheme the paper would have chosen
// before the program ran. HW splits on the arrays' own protocols —
// privatization only when every array under test privatizes.
func staticStrategy(w *Workload, m Mode) policy.Strategy {
	switch m {
	case Serial:
		return policy.Serial
	case SW:
		return policy.SWLRPD
	}
	allPriv := false
	for _, a := range w.Arrays {
		switch a.Test {
		case core.NonPriv:
			return policy.HWNonPriv
		case core.Priv:
			allPriv = true
		}
	}
	if allPriv {
		return policy.HWPriv
	}
	return policy.HWNonPriv
}

// strategyVariant derives the (workload, config) pair that executes one
// strategy. The hardware strategies rewrite the arrays under test to the
// strategy's protocol — that is the whole point of directing: the same
// loop can run under non-privatization (cheap, no copy-out) or
// privatization (tolerates write-before-read scratch access) depending
// on what the history says. Serial and software LRPD keep the arrays'
// natural protocols.
func strategyVariant(w *Workload, cfg Config, st policy.Strategy) (*Workload, Config) {
	vcfg := cfg
	vcfg.Policy = policy.Off
	vcfg.Director = policy.Static
	vcfg.AdaptiveAfter = 0

	vw := *w
	switch st {
	case policy.Serial:
		vcfg.Mode = Serial
		return &vw, vcfg
	case policy.SWLRPD:
		vcfg.Mode = SW
		return &vw, vcfg
	}

	vcfg.Mode = HW
	arrays := make([]ArraySpec, len(w.Arrays))
	copy(arrays, w.Arrays)
	for i := range arrays {
		a := &arrays[i]
		if a.Test == core.Plain {
			continue
		}
		if st == policy.HWNonPriv {
			a.Test = core.NonPriv
			a.RICO = false
		} else {
			// Privatization with read-in/copy-out (§3.3). An array the
			// workload declared NonPriv updates the shared storage in
			// place; privatized, its final values live in per-processor
			// copies and must be copied out to stay live.
			if a.Test == core.NonPriv {
				a.LiveOut = true
			}
			a.Test = core.Priv
			a.RICO = true
		}
	}
	vw.Arrays = arrays
	return &vw, vcfg
}

// ExecuteAdaptive runs w adaptively under an explicit director instead
// of the Config-derived one. Harness ablations use it to pin arbitrary
// static decisions (e.g. "always hw-priv") through the same adaptive
// executor the learned directors run in, so their cycle counts are
// comparable instance for instance. The result is still deterministic
// for a fixed director, but callers that memoize by Config hash must not
// cache through here — the hash does not cover an arbitrary director.
func ExecuteAdaptive(w *Workload, cfg Config, d policy.Director, progress ProgressFunc) (*Result, error) {
	cfg.Policy = policy.Adaptive
	if err := validate(w, cfg); err != nil {
		return nil, err
	}
	return execute(w, cfg, d, progress), nil
}
