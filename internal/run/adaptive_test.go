package run

import (
	"strings"
	"testing"

	"specrt/internal/core"
	"specrt/internal/policy"
	"specrt/internal/sched"
)

// repeated returns w with its execution count raised: the adaptive layer
// only has something to learn across repeated instances.
func repeated(w *Workload, execs int) *Workload {
	w.Executions = execs
	return w
}

// racyLoop carries a value through every iteration (iteration i reads
// what i-1 wrote), so speculation fails under any schedule that spreads
// the iterations across processors — unlike depLoop, whose single
// adjacent-iteration dependence lands on one processor under static or
// chunked scheduling.
func racyLoop(iters int) *Workload {
	return &Workload{
		Name:       "racy-chain",
		Executions: 1,
		Iterations: func(int) int { return iters },
		Arrays: []ArraySpec{
			{Name: "A", Elems: iters + 1, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(50)
			c.Load(0, iter)
			c.Store(0, iter+1)
		},
	}
}

// TestAdaptiveStaticMatchesPlainExecution: the static director pins the
// strategy the mode would have run, so an adaptive run under it must
// reproduce the plain execution cycle-for-cycle — the policy layer adds
// observation, never perturbation. On the racy loop every instance fails
// and re-executes serially, so the failure path is pinned too.
func TestAdaptiveStaticMatchesPlainExecution(t *testing.T) {
	const execs = 4
	indep := func() *Workload { return repeated(indepLoop(core.NonPriv, 64, 64, 100), execs) }
	racy := func() *Workload { return repeated(racyLoop(32), execs) }
	cases := []struct {
		name     string
		mk       func() *Workload
		mode     Mode
		strategy policy.Strategy
		fails    bool
	}{
		{"indep-hw", indep, HW, policy.HWNonPriv, false},
		{"racy-hw", racy, HW, policy.HWNonPriv, true},
		{"racy-sw", racy, SW, policy.SWLRPD, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfgFor(tc.mode, 4)
			plain := MustExecute(tc.mk(), cfg)

			acfg := cfg
			acfg.Policy = policy.Adaptive // Director zero value = static baseline
			ad := MustExecute(tc.mk(), acfg)

			if ad.Cycles != plain.Cycles || ad.Breakdown != plain.Breakdown {
				t.Fatalf("adaptive static = %d cycles %+v, plain = %d cycles %+v",
					ad.Cycles, ad.Breakdown, plain.Cycles, plain.Breakdown)
			}
			if ad.Failures != plain.Failures || ad.MachineStats != plain.MachineStats {
				t.Fatalf("adaptive static: %d failures, stats %+v; plain: %d failures, stats %+v",
					ad.Failures, ad.MachineStats, plain.Failures, plain.MachineStats)
			}
			wantFails := 0
			if tc.fails {
				wantFails = execs
			}
			if plain.Failures != wantFails {
				t.Fatalf("plain run failed %d instances, want %d", plain.Failures, wantFails)
			}
			if want := "static:" + tc.strategy.String(); ad.Director != want {
				t.Fatalf("director name %q, want %q", ad.Director, want)
			}
			if len(ad.Decisions) != execs {
				t.Fatalf("got %d decisions, want %d", len(ad.Decisions), execs)
			}
			for i, d := range ad.Decisions {
				if d.Strategy != tc.strategy || d.Switched || d.Failed != tc.fails {
					t.Fatalf("decision %d = %+v, want pinned %v with failed=%v", i, d, tc.strategy, tc.fails)
				}
				if !tc.fails && d.TouchedPermille != 1000 {
					t.Fatalf("decision %d touched %d permille, want 1000 (dense loop)", i, d.TouchedPermille)
				}
			}
			if ad.PolicySwitches != 0 || ad.PolicyMispredicts != wantFails {
				t.Fatalf("pinned director reported %d switches, %d mispredicts", ad.PolicySwitches, ad.PolicyMispredicts)
			}
		})
	}
}

// TestAdaptiveValidation: the config combinations the policy layer
// rejects.
func TestAdaptiveValidation(t *testing.T) {
	w := indepLoop(core.NonPriv, 16, 16, 10)
	// A director may pick the SW strategy whatever the mode, so a
	// schedule the processor-wise SW test cannot run is rejected under
	// HW too.
	pw := indepLoop(core.NonPriv, 16, 16, 10)
	pw.SWProcWise = true
	dyn := &sched.Config{Kind: sched.Dynamic, Chunk: 4}
	cases := []struct {
		name string
		w    *Workload
		cfg  Config
		want string
	}{
		{"ideal", w, Config{Procs: 2, Mode: Ideal, Policy: policy.Adaptive}, "not Ideal"},
		{"adaptive-after", w, Config{Procs: 2, Mode: HW, Policy: policy.Adaptive, AdaptiveAfter: 2}, "supersedes"},
		{"director-without-policy", w, Config{Procs: 2, Mode: HW, Director: policy.Threshold}, "requires policy adaptive"},
		{"procwise-sw-strategy-dynamic", pw,
			Config{Procs: 8, Mode: HW, SchedOverride: dyn, Policy: policy.Adaptive, Director: policy.Cost},
			"requires static scheduling"},
	}
	for _, tc := range cases {
		if err := Validate(tc.w, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestAdaptiveThresholdRetreatsOnRacyLoop: a loop with a real
// cross-iteration dependence fails speculation every time under the
// static scheme; the threshold director pays a bounded number of failed
// probes and runs the rest serially, beating the static baseline.
func TestAdaptiveThresholdRetreatsOnRacyLoop(t *testing.T) {
	const execs = 12
	mk := func() *Workload { return repeated(racyLoop(32), execs) }
	cfg := cfgFor(HW, 4)

	static := MustExecute(mk(), cfg) // fails all 12 instances
	if static.Failures != execs {
		t.Fatalf("static HW failed %d of %d (workload no longer racy?)", static.Failures, execs)
	}

	acfg := cfg
	acfg.Policy = policy.Adaptive
	acfg.Director = policy.Threshold
	ad := MustExecute(mk(), acfg)

	if ad.PolicyMispredicts >= execs/2 {
		t.Fatalf("threshold mispredicted %d of %d instances — never retreated", ad.PolicyMispredicts, execs)
	}
	if ad.PolicySwitches == 0 {
		t.Fatalf("threshold never switched strategy on a racy loop")
	}
	if ad.Cycles >= static.Cycles {
		t.Fatalf("threshold (%d cycles) not faster than static HW (%d) on a racy loop", ad.Cycles, static.Cycles)
	}
	serialRuns := 0
	for _, d := range ad.Decisions {
		if d.Strategy == policy.Serial {
			serialRuns++
			if d.Failed {
				t.Fatalf("serial instance %d reported failed speculation", d.Instance)
			}
		}
	}
	if serialRuns < execs/2 {
		t.Fatalf("only %d of %d instances ran serial after retreat", serialRuns, execs)
	}
}

// TestAdaptiveCostConvergesOnParallelLoop: on a stationary parallel
// loop the cost director explores each strategy once and then settles
// on a speculative one, with zero mispredicts.
func TestAdaptiveCostConvergesOnParallelLoop(t *testing.T) {
	const execs = 10
	w := repeated(indepLoop(core.NonPriv, 64, 64, 100), execs)
	cfg := cfgFor(HW, 4)
	cfg.Policy = policy.Adaptive
	cfg.Director = policy.Cost

	ad := MustExecute(w, cfg)
	if ad.PolicyMispredicts != 0 {
		t.Fatalf("cost mispredicted %d instances on a clean parallel loop", ad.PolicyMispredicts)
	}
	// After the 4-strategy exploration the director must exploit one
	// speculative strategy steadily.
	settled := ad.Decisions[policy.NumStrategies:]
	for _, d := range settled {
		if d.Strategy != settled[0].Strategy {
			t.Fatalf("cost kept switching after exploration: %+v", ad.Decisions)
		}
	}
	if settled[0].Strategy == policy.Serial {
		t.Fatalf("cost settled on serial for a parallel loop:\n%+v", ad.Decisions)
	}
}

// TestAdaptiveProbeCoarsensChunks: on a dynamically scheduled racy
// loop, the threshold director's low-confidence probes run at twice the
// workload's own chunk size, and that override is visible in the trace.
func TestAdaptiveProbeCoarsensChunks(t *testing.T) {
	const execs = 16
	w := repeated(racyLoop(32), execs)
	w.HWSched = sched.Config{Kind: sched.Dynamic, Chunk: 2}
	cfg := cfgFor(HW, 4)
	cfg.Policy = policy.Adaptive
	cfg.Director = policy.Threshold

	ad := MustExecute(w, cfg)
	probes := 0
	for _, d := range ad.Decisions {
		if d.Strategy != policy.Serial && d.Instance > 0 {
			probes++
			if d.Chunk != 4 {
				t.Fatalf("probe at instance %d ran chunk %d, want 2x base = 4", d.Instance, d.Chunk)
			}
		}
	}
	if probes == 0 {
		t.Fatalf("no probes in %d instances of a racy loop:\n%+v", execs, ad.Decisions)
	}
}

// TestAdaptiveDeterminism: adaptive results are pure functions of
// (workload, config), decision trace included.
func TestAdaptiveDeterminism(t *testing.T) {
	mk := func() *Workload { return repeated(racyLoop(32), 10) }
	cfg := cfgFor(HW, 4)
	cfg.Policy = policy.Adaptive
	cfg.Director = policy.Cost

	a, b := MustExecute(mk(), cfg), MustExecute(mk(), cfg)
	if a.Cycles != b.Cycles || a.PolicySwitches != b.PolicySwitches ||
		a.PolicyMispredicts != b.PolicyMispredicts {
		t.Fatalf("adaptive run not deterministic: %d/%d/%d vs %d/%d/%d",
			a.Cycles, a.PolicySwitches, a.PolicyMispredicts,
			b.Cycles, b.PolicySwitches, b.PolicyMispredicts)
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a.Decisions[i], b.Decisions[i])
		}
	}
}

// TestExecuteAdaptivePinsArbitraryStrategy: the exported entry point
// runs any static decision through the adaptive executor (the harness
// ablation uses this to compare pinned strategies instance for
// instance).
func TestExecuteAdaptivePinsArbitraryStrategy(t *testing.T) {
	w := repeated(indepLoop(core.Priv, 32, 32, 50), 3)
	cfg := cfgFor(HW, 4)
	r, err := ExecuteAdaptive(w, cfg, policy.NewStatic(policy.Decision{Strategy: policy.Serial}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Director != "static:serial" || len(r.Decisions) != 3 {
		t.Fatalf("got director %q with %d decisions", r.Director, len(r.Decisions))
	}
	for _, d := range r.Decisions {
		if d.Strategy != policy.Serial || d.Failed {
			t.Fatalf("pinned serial decision %+v", d)
		}
	}
}
