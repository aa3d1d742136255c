package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"

	"specrt/internal/loops"
	"specrt/internal/policy"
	"specrt/internal/run"
)

// The experiment grid of §6 is embarrassingly parallel: every cell is an
// independent deterministic simulation that owns its engine and machine.
// Every experiment is a table of cells plus a renderer; results come back
// in cell order, so parallel and sequential runs are byte-identical.

// cell is one simulation: a paper loop by name (resolved at the harness
// scale) or a builder for a synthetic loop, plus the config fields the
// cell itself sets.
type cell struct {
	loop  string               // paper loop (Ocean, P3m, Adm, Track)
	build func() *run.Workload // synthetic loop, when loop is empty
	procs int
	mode  run.Mode
	// set applies the fields the cell sweeps, after the harness-wide
	// knobs; nil sweeps nothing.
	set func(*run.Config)
	// director pins the policy director of a synthetic cell's adaptive
	// run (the directors ablation's static:* rows).
	director policy.Director
}

// loopCell is a paper loop under a scheme at a processor count.
func loopCell(name string, mode run.Mode, procs int) cell {
	return cell{loop: name, mode: mode, procs: procs}
}

// config is the one place a cell becomes a run.Config: the harness-wide
// knobs apply first, then the fields the cell sweeps.
func (h *Harness) config(c cell) run.Config {
	cfg := run.Config{
		Procs: c.procs, Mode: c.mode, Contention: true,
		Topology: h.Topology, Placement: h.Placement,
		MeshW: h.MeshW, MeshH: h.MeshH, DirMode: h.DirMode,
	}
	if c.set != nil {
		c.set(&cfg)
	}
	return cfg
}

// run simulates cells on the runner's pool and returns their results in
// cell order. Only a simulation holds a pool slot, so waiting on a flight
// or on a batch never starves the pool. With a single worker the cells
// run sequentially in the given order.
func (h *Harness) run(cells []cell) []*run.Result {
	res := make([]*run.Result, len(cells))
	if h.runner.Parallelism() <= 1 || len(cells) < 2 {
		for i, c := range cells {
			res[i] = h.simulate(c)
		}
		return res
	}
	var wg sync.WaitGroup
	wg.Add(len(cells))
	for i, c := range cells {
		go func() {
			defer wg.Done()
			res[i] = h.simulate(c)
		}()
	}
	wg.Wait()
	return res
}

// simulate runs one cell. Paper-loop cells run as jobs under
// JobSpec.Key — the content address specrtd caches under — and the
// runner keeps each one; synthetic cells run every time.
func (h *Harness) simulate(c cell) *run.Result {
	cfg := h.config(c)
	if c.loop != "" {
		spec := JobSpec{Workload: c.loop, Config: cfg}
		return h.runner.Run(spec.Key(), mustPlan(Admit(spec, h.Scale)), nil)
	}
	return h.runner.execute(mustPlan(run.Admit(c.build(), cfg)), c.director, nil)
}

// mustPlan returns an admitted cell's plan. Every cell of the harness's
// tables is admissible, so an error is a bug in a table.
func mustPlan(p *run.Plan, err error) *run.Plan {
	if err != nil {
		panic("harness: " + err.Error())
	}
	return p
}

// table is one experiment as data: the cells it simulates, how their
// results (in cell order) become the experiment's result, and how that
// result prints.
type table[T any] struct {
	cells  []cell
	result func(res []*run.Result) T
	print  func(w io.Writer, t T)
}

// of runs the table's cells and assembles the result.
func (t table[T]) of(h *Harness) T { return t.result(h.run(t.cells)) }

// printTo runs the table, prints it, and returns the result.
func (t table[T]) printTo(h *Harness, w io.Writer) T {
	r := t.of(h)
	t.print(w, r)
	return r
}

// section erases the table's result type so experiments batch together:
// render prints from results already simulated.
func (t table[T]) section(name string) section {
	return section{name, t.cells, func(w io.Writer, res []*run.Result) { t.print(w, t.result(res)) }}
}

// eachRow builds a table's result one row per cell result.
func eachRow[R any](row func(i int, r *run.Result) R) func([]*run.Result) []R {
	return func(res []*run.Result) []R {
		rows := make([]R, len(res))
		for i, r := range res {
			rows[i] = row(i, r)
		}
		return rows
	}
}

// tabulate writes an experiment's title line and returns a table writer
// with the header row written; the caller adds rows and flushes.
func tabulate(w io.Writer, title, header string) *tabwriter.Writer {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	return tw
}

// section is one named experiment of a batch (see Ablations).
type section struct {
	name   string
	cells  []cell
	render func(w io.Writer, res []*run.Result)
}

// parallelism resolves a worker-pool size: n <= 0 means all host cores.
func parallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// speedupCells lists the cells Figures 11 and 12 need: every loop under
// every scheme (run.Modes order) at its paper processor count, the
// Serial baseline at one.
func speedupCells() []cell {
	var cells []cell
	for _, name := range LoopNames {
		for _, mode := range run.Modes {
			procs := loops.Procs(name)
			if mode == run.Serial {
				procs = 1
			}
			cells = append(cells, loopCell(name, mode, procs))
		}
	}
	return cells
}

// scalabilityCells lists the Figure 14 grid: each scaling loop's Serial
// baseline, then every parallel scheme at 4, 8 and 16 processors.
func scalabilityCells() []cell {
	var cells []cell
	for _, name := range scalingLoops {
		cells = append(cells, loopCell(name, run.Serial, 1))
		for _, p := range fig14Procs {
			cells = append(cells,
				loopCell(name, run.Ideal, p), loopCell(name, run.SW, p), loopCell(name, run.HW, p))
		}
	}
	return cells
}
