package harness

import (
	"fmt"
	"io"
	"strings"

	"specrt/internal/check"
	"specrt/internal/core"
	"specrt/internal/loops"
	"specrt/internal/policy"
	"specrt/internal/run"
	"specrt/internal/sched"
)

// Adaptive-director ablation: the paper chooses each loop's scheme
// statically and never revisits it (§2.2.4's success-rate heuristic only
// gives up, it never re-speculates). The policy layer's directors choose
// per instance from recorded history instead. This ablation runs every
// workload under all four pinned static strategies — through the same
// adaptive executor, so cycle counts are comparable instance for
// instance — and under the two learned directors, on four workloads
// whose best static answers differ: a stationary parallel loop (Ocean),
// a never-parallel chain (serial is best), a write-before-read scratch
// loop (privatization is best), and a phase-changing generated loop
// where no single static answer is right.

// AdaptiveProcs is the machine width of the ablation (Ocean's paper
// width; the generated loops are sized for it too).
const AdaptiveProcs = 8

// AdaptiveInstances is how many repeated loop instances each cell
// simulates at a scale. The counts are divisible by 3 so the phase-mix
// loop splits into equal phase thirds.
func AdaptiveInstances(sc Scale) int {
	switch sc.Name {
	case "quick":
		return 12
	case "paper":
		return 48
	}
	return 24
}

// AdaptiveWorkloads lists the ablation's workloads in presentation
// order.
var AdaptiveWorkloads = []string{"Ocean", "racy-chain", "priv-scratch", "phase-mix"}

// adaptiveSchemes lists the per-workload rows: the four pinned static
// strategies first, then the learned directors.
var adaptiveSchemes = []string{
	"static:serial", "static:sw-lrpd", "static:hw-nonpriv", "static:hw-priv",
	"threshold", "cost",
}

// racyChainLoop carries a value through every iteration, so speculation
// fails under any schedule that spreads iterations across processors:
// the workload whose best static answer is to never speculate.
func racyChainLoop(instances int) *run.Workload {
	const iters = 32
	return &run.Workload{
		Name:       "racy-chain",
		Executions: instances,
		Iterations: func(int) int { return iters },
		Arrays: []run.ArraySpec{
			{Name: "A", Elems: iters + 1, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(exec, iter int, c *run.Ctx) {
			c.Compute(60)
			c.Load(0, iter)
			c.Store(0, iter+1)
		},
	}
}

// privScratchLoop writes a small shared scratch region before reading it
// back in every iteration — the §3.3 target pattern. Every processor
// reuses every slot, so the non-privatization test fails on cross-
// processor write-write sharing, while privatization runs it cleanly:
// the workload whose best static answer is hardware privatization.
func privScratchLoop(instances int) *run.Workload {
	const iters = 64
	const slots = 4
	return &run.Workload{
		Name:       "priv-scratch",
		Executions: instances,
		Iterations: func(int) int { return iters },
		Arrays: []run.ArraySpec{
			{Name: "SCR", Elems: slots, ElemSize: 4, Test: core.NonPriv},
			{Name: "OUT", Elems: iters, ElemSize: 4, Test: core.Plain},
		},
		Body: func(exec, iter int, c *run.Ctx) {
			slot := iter % slots
			c.Store(0, slot) // write-before-read scratch
			c.Compute(80)
			c.Load(0, slot)
			c.Store(1, iter)
		},
	}
}

// phaseMixWorkload is the phase-changing loop: the first third of its
// instances replays a check-generated fully parallel access shape
// (phase 1), the middle third a privatizable write-before-read shape
// (phase 2), and the last third a racy cross-iteration chain (phase 3).
// Each phase has a different best strategy (hw-nonpriv, hw-priv,
// serial), so every static scheme loses somewhere and only a director
// that re-decides per instance can track the loop.
func phaseMixWorkload(instances int) *run.Workload {
	per := instances / 3
	var byIter [3][][]check.Access
	var iters [3]int
	elems := 1
	for p := 0; p < 3; p++ {
		sc := check.Scale{Name: "adaptive-mix", MaxProcs: AdaptiveProcs,
			MaxElems: 64, MaxSteps: 24, Phase: p + 1}
		s := check.Generate(uint64(p+1), sc)
		if s.Elems > elems {
			elems = s.Elems
		}
		for _, a := range s.Accesses {
			if a.Iter > iters[p] {
				iters[p] = a.Iter
			}
		}
		byIter[p] = make([][]check.Access, iters[p])
		for _, a := range s.Accesses {
			byIter[p][a.Iter-1] = append(byIter[p][a.Iter-1], a)
		}
	}
	phaseOf := func(exec int) int {
		p := exec / per
		if p > 2 {
			p = 2
		}
		return p
	}
	return &run.Workload{
		Name:       "phase-mix",
		Executions: instances,
		Iterations: func(exec int) int { return iters[phaseOf(exec)] },
		Arrays: []run.ArraySpec{
			{Name: "A", Elems: elems, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(exec, iter int, c *run.Ctx) {
			c.Compute(120)
			for _, a := range byIter[phaseOf(exec)][iter] {
				if a.Write {
					c.Store(0, a.Elem)
				} else {
					c.Load(0, a.Elem)
				}
			}
		},
		// Odd chunking keeps the phase-2 scratch collisions (16 iterations
		// apart) off a single processor at 8 processors.
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 3},
	}
}

// adaptiveWorkload instantiates one ablation workload with the given
// instance count.
func adaptiveWorkload(name string, instances int) *run.Workload {
	switch name {
	case "Ocean":
		w := loops.Ocean()
		w.Executions = instances
		return w
	case "racy-chain":
		return racyChainLoop(instances)
	case "priv-scratch":
		return privScratchLoop(instances)
	case "phase-mix":
		return phaseMixWorkload(instances)
	}
	panic("harness: unknown adaptive workload " + name)
}

// DirectorRow is one (workload, scheme) cell of the ablation.
type DirectorRow struct {
	Workload string
	Scheme   string // static:<strategy>, threshold or cost
	Learned  bool   // true for the threshold and cost directors
	Cycles   int64
	MeanInst float64 // mean cycles per instance
	Failures int
	Switches int
	Mispred  int
	// StaticBest marks the cheapest pinned static row of the workload —
	// the scheme an oracle compiler would have chosen.
	StaticBest bool
	// Decisions is the learned rows' per-instance trace (nil for pinned
	// statics, whose trace is trivially constant).
	Decisions []run.PolicyDecision
}

// directorCell is one cell of the ablation: an adaptive run whose
// director the config selects, or a pinned static one for the static:*
// rows (the adaptive executor ignores the config's director then).
func directorCell(workload, scheme string, instances int) cell {
	var kind policy.DirectorKind
	var static policy.Director
	var err error
	if st, ok := strings.CutPrefix(scheme, "static:"); ok {
		var strat policy.Strategy
		strat, err = policy.StrategyByName(st)
		static = policy.NewStatic(policy.Decision{Strategy: strat})
	} else {
		kind, err = policy.DirectorByName(scheme)
	}
	c := cell{build: func() *run.Workload { return adaptiveWorkload(workload, instances) },
		mode: run.HW, procs: AdaptiveProcs, director: static, set: func(cfg *run.Config) {
			cfg.MaxExecutions, cfg.Policy, cfg.Director = instances, policy.Adaptive, kind
		}}
	if err != nil {
		panic("harness: adaptive cell " + workload + "/" + scheme + ": " + err.Error())
	}
	return c
}

// directorRow assembles one row from a cell's result.
func directorRow(workload, scheme string, res *run.Result) DirectorRow {
	row := DirectorRow{
		Workload: workload, Scheme: scheme,
		Learned:  !strings.HasPrefix(scheme, "static:"),
		Cycles:   int64(res.Cycles),
		MeanInst: res.MeanCyclesPerExec(),
		Failures: res.Failures + res.Exceptions,
		Switches: res.PolicySwitches,
		Mispred:  res.PolicyMispredicts,
	}
	if row.Learned {
		row.Decisions = res.Decisions
	}
	return row
}

// DirectorCell simulates one cell.
func (h *Harness) DirectorCell(workload, scheme string, instances int) DirectorRow {
	return directorRow(workload, scheme, h.run([]cell{directorCell(workload, scheme, instances)})[0])
}

// directors is the full grid: every workload under every scheme,
// instances loop instances per cell (<= 0 selects the scale's count).
func (h *Harness) directors(instances int) table[[]DirectorRow] {
	if instances <= 0 {
		instances = AdaptiveInstances(h.Scale)
	}
	var cells []cell
	for _, w := range AdaptiveWorkloads {
		for _, s := range adaptiveSchemes {
			cells = append(cells, directorCell(w, s, instances))
		}
	}
	return table[[]DirectorRow]{cells: cells, result: func(res []*run.Result) []DirectorRow {
		rows := make([]DirectorRow, len(res))
		for i, r := range res {
			rows[i] = directorRow(AdaptiveWorkloads[i/len(adaptiveSchemes)], adaptiveSchemes[i%len(adaptiveSchemes)], r)
		}
		for base := 0; base < len(rows); base += len(adaptiveSchemes) {
			best := -1
			for i := base; i < base+len(adaptiveSchemes); i++ {
				if rows[i].Learned {
					continue
				}
				if best < 0 || rows[i].Cycles < rows[best].Cycles {
					best = i
				}
			}
			rows[best].StaticBest = true
		}
		return rows
	}, print: func(w io.Writer, rows []DirectorRow) {
		tw := tabulate(w, fmt.Sprintf("Ablation: adaptive speculation directors (HW machine, %d procs, %d instances per cell)",
			AdaptiveProcs, instances), "workload\tscheme\tcycles\tmean/inst\tfails\tswitches\tmispredicts")
		for _, r := range rows {
			mark := ""
			if r.StaticBest {
				mark = " *"
			}
			fmt.Fprintf(tw, "%s\t%s%s\t%d\t%.0f\t%d\t%d\t%d\n",
				r.Workload, r.Scheme, mark, r.Cycles, r.MeanInst, r.Failures, r.Switches, r.Mispred)
		}
		tw.Flush()
		fmt.Fprintln(w, "(* = best pinned static scheme of the workload)")
		fmt.Fprintln(w, "decision traces (phase-mix):")
		for _, r := range rows {
			if r.Workload == "phase-mix" && r.Learned {
				fmt.Fprintf(w, "  %s: %s\n", r.Scheme, DecisionTrace(r.Decisions))
			}
		}
		fmt.Fprint(w, "expected: on the stationary loops the learned directors converge to the starred scheme (threshold matches it exactly on Ocean); on phase-mix, where each third has a different best answer, the best learned director beats every pinned static once the thirds are long enough to amortize exploration (>= 8 instances each, i.e. default scale and up)\n\n")
	}}
}

// AblationDirectors runs the full grid: every workload under every
// scheme, instances loop instances per cell. Cells fan out over the
// worker pool; rows assemble in presentation order, with the cheapest
// pinned static of each workload marked StaticBest.
func (h *Harness) AblationDirectors(instances int) []DirectorRow { return h.directors(instances).of(h) }

// DecisionTrace renders a decision list as a compact run-length trace:
// consecutive instances of the same strategy and outcome collapse into
// one segment, "!" marks failed speculation, and "@N" a chunk override.
// The segments narrate exactly when and why the director switched.
func DecisionTrace(decs []run.PolicyDecision) string {
	var b strings.Builder
	seg := func(d run.PolicyDecision, n int) {
		if b.Len() > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(d.Strategy.String())
		if d.Chunk > 0 {
			fmt.Fprintf(&b, "@%d", d.Chunk)
		}
		if d.Failed {
			b.WriteByte('!')
		}
		if n > 1 {
			fmt.Fprintf(&b, " x%d", n)
		}
	}
	runLen := 0
	for i, d := range decs {
		if i > 0 && (d.Strategy != decs[i-1].Strategy || d.Failed != decs[i-1].Failed ||
			d.Chunk != decs[i-1].Chunk) {
			seg(decs[i-1], runLen)
			runLen = 0
		}
		runLen++
		if i == len(decs)-1 {
			seg(d, runLen)
		}
	}
	return b.String()
}

// PrintAblationDirectors renders the director table plus the learned
// directors' decision traces on the phase-changing loop.
func (h *Harness) PrintAblationDirectors(w io.Writer, instances int) []DirectorRow {
	return h.directors(instances).printTo(h, w)
}

// DirectorsResult wraps the rows for CSV emission.
type DirectorsResult struct{ Rows []DirectorRow }

// WriteCSV emits the ablation as
// workload,scheme,learned,static_best,cycles,mean_inst,failures,switches,mispredicts rows.
func (r DirectorsResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, row.Scheme,
			fmt.Sprint(row.Learned), fmt.Sprint(row.StaticBest),
			d(row.Cycles), f(row.MeanInst), fmt.Sprint(row.Failures),
			fmt.Sprint(row.Switches), fmt.Sprint(row.Mispred),
		})
	}
	return writeCSV(w, []string{"workload", "scheme", "learned", "static_best",
		"cycles", "mean_inst", "failures", "switches", "mispredicts"}, rows)
}
