// Package harness regenerates every table and figure of the paper's
// evaluation (§6): the §5.1 latency table, Figure 11 (loop speedups),
// Figure 12 (execution-time breakdowns), Figure 13 (slowdown on test
// failure), and Figure 14 (scalability), plus the ablations DESIGN.md
// lists. Each experiment returns a structured result and can print the
// same rows the paper reports.
package harness

import (
	"fmt"
	"io"
	"strings"

	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/loops"
	"specrt/internal/mem"
	"specrt/internal/run"
	"specrt/internal/stats"
)

// Scale bounds how much of each workload is simulated. The schemes'
// relative behaviour is per-execution, so capping executions preserves
// every comparison while bounding run time.
type Scale struct {
	Name       string
	OceanExecs int // of 4129
	AdmExecs   int // of 900
	TrackExecs int // of 56
	P3mIters   int // of the paper's simulated 15,000
}

// Quick is a seconds-scale configuration for tests and smoke runs.
var Quick = Scale{Name: "quick", OceanExecs: 3, AdmExecs: 4, TrackExecs: 10, P3mIters: 600}

// Default balances fidelity and run time (minutes-scale for the full
// experiment set).
var Default = Scale{Name: "default", OceanExecs: 16, AdmExecs: 16, TrackExecs: 56, P3mIters: 4000}

// Paper simulates what the paper did: all Track executions, P3m's 15,000
// iterations, and enough Ocean/Adm executions for stable averages.
var Paper = Scale{Name: "paper", OceanExecs: 48, AdmExecs: 48, TrackExecs: 56, P3mIters: 15000}

// Harness memoizes executions across experiments (Figures 11, 12 and 14
// share runs, and ablations reuse figure cells) and distributes
// independent cells over a bounded worker pool. It is safe for
// concurrent use.
type Harness struct {
	Scale Scale

	// Topology and Placement apply to every simulated cell except
	// where a cell sweeps the field itself (the mesh and wide
	// ablations). The defaults — interconnect.Ideal, mem.RoundRobin —
	// reproduce the paper's machine. Set them before the first Result
	// call; cells are memoized per harness under their full config.
	Topology  interconnect.Kind
	Placement mem.Placement

	// MeshW/MeshH force an explicit WxH mesh shape when Topology is the
	// mesh (zero = the near-square auto shape), and DirMode selects the
	// directory sharer representation (full-map by default; coarse
	// enables the limited-pointer/coarse-vector directory). Like
	// Topology, they apply to every cell that does not sweep them: the
	// wide ablation sets its own directory mode and keeps the auto mesh
	// shape at every width.
	MeshW, MeshH int
	DirMode      directory.Mode

	// runner is the one pool and singleflight every cell runs through;
	// it keeps each paper-loop cell's completed flight, which makes its
	// flight map the harness's memo.
	runner *Runner
}

// New creates a harness at the given scale that uses every host core.
func New(sc Scale) *Harness { return NewParallel(sc, 0) }

// NewParallel creates a harness with an explicit worker-pool size;
// par <= 0 selects runtime.NumCPU(). With par == 1 the harness runs every
// experiment strictly sequentially; any larger pool produces byte-identical
// results, because each cell is an independent deterministic simulation and
// output assembly stays in presentation order.
func NewParallel(sc Scale, par int) *Harness {
	return &Harness{Scale: sc, runner: newRunner(sc, par, true)}
}

// CellsSimulated reports how many simulations the harness's runner has
// actually executed: each distinct paper-loop cell once (kept flights
// and joined flights excluded) plus every synthetic-loop cell run — used
// to verify deduplication under concurrency and cell reuse across
// experiments.
func (h *Harness) CellsSimulated() int64 { return h.runner.Simulated() }

// LoopNames lists the paper's loops in presentation order.
var LoopNames = []string{"Ocean", "P3m", "Adm", "Track"}

// Result returns the simulation of a loop under a mode and processor
// count, run as a job on the harness's runner. Concurrent calls for the
// same cell join one flight; the runner keeps it, so later calls share
// the same result without simulating. The runner's pool bounds how many
// cells simulate at once.
func (h *Harness) Result(name string, mode run.Mode, procs int) *run.Result {
	return h.run([]cell{loopCell(name, mode, procs)})[0]
}

// ---------------------------------------------------------------------
// Figure 11: speedups of the Ideal, SW and HW parallel executions.

// Fig11Row is one loop's speedups (Ocean at 8 processors, others at 16).
type Fig11Row struct {
	Loop   string
	Procs  int
	Ideal  float64
	SW     float64
	HW     float64
	EffHW  float64 // HW efficiency (speedup / procs)
	EffSW  float64
	EffIdl float64
}

// Fig11Result aggregates the figure plus the paper's headline averages.
type Fig11Result struct {
	Rows      []Fig11Row
	MeanHW    float64 // paper: ≈ 6.7 at 16 processors (avg over loops)
	MeanSW    float64 // paper: ≈ 2.9
	MeanIdeal float64
}

// fig11 is Figure 11 over the speedup grid (per loop: Serial, Ideal,
// SW, HW).
func (h *Harness) fig11() table[Fig11Result] {
	return table[Fig11Result]{cells: speedupCells(), result: func(res []*run.Result) Fig11Result {
		var out Fig11Result
		var hws, sws, ids []float64
		for i, name := range LoopNames {
			serial, ideal, sw, hw := res[4*i], res[4*i+1], res[4*i+2], res[4*i+3]
			row := Fig11Row{
				Loop:   name,
				Procs:  loops.Procs(name),
				Ideal:  run.Speedup(serial, ideal),
				SW:     run.Speedup(serial, sw),
				HW:     run.Speedup(serial, hw),
				EffIdl: stats.Efficiency(serial, ideal),
				EffSW:  stats.Efficiency(serial, sw),
				EffHW:  stats.Efficiency(serial, hw),
			}
			out.Rows = append(out.Rows, row)
			hws = append(hws, row.HW)
			sws = append(sws, row.SW)
			ids = append(ids, row.Ideal)
		}
		out.MeanHW = stats.Mean(hws)
		out.MeanSW = stats.Mean(sws)
		out.MeanIdeal = stats.Mean(ids)
		return out
	}, print: func(w io.Writer, res Fig11Result) {
		tw := tabulate(w, fmt.Sprintf("Figure 11: speedups of the parallel executions (scale %s)", h.Scale.Name), "loop\tprocs\tIdeal\tSW\tHW\teff(Ideal)\teff(SW)\teff(HW)")
		for _, r := range res.Rows {
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				r.Loop, r.Procs, r.Ideal, r.SW, r.HW, r.EffIdl, r.EffSW, r.EffHW)
		}
		fmt.Fprintf(tw, "mean\t\t%.2f\t%.2f\t%.2f\t\t\t\n", res.MeanIdeal, res.MeanSW, res.MeanHW)
		tw.Flush()
		fmt.Fprintf(w, "paper: HW avg ≈ 6.7 @16, SW avg ≈ 2.9 @16; HW ≈ 2x SW and halfway to Ideal\n\n")
	}}
}

// Fig11 reproduces Figure 11. The sixteen cells simulate concurrently on
// the worker pool; rows assemble in presentation order.
func (h *Harness) Fig11() Fig11Result { return h.fig11().of(h) }

// PrintFig11 renders the figure as a table.
func (h *Harness) PrintFig11(w io.Writer) Fig11Result { return h.fig11().printTo(h, w) }

// ---------------------------------------------------------------------
// Figure 12: execution time broken into Busy / Sync / Mem, normalized to
// Serial.

// Fig12Bar is one bar of the figure.
type Fig12Bar struct {
	Loop  string
	Mode  run.Mode
	Procs int
	Norm  stats.NormBreakdown
}

// Fig12Result is the full figure.
type Fig12Result struct {
	Bars []Fig12Bar
}

// fig12 is Figure 12: one bar per speedup-grid cell, normalized to its
// loop's Serial baseline.
func (h *Harness) fig12() table[Fig12Result] {
	cells := speedupCells()
	return table[Fig12Result]{cells: cells, result: func(res []*run.Result) Fig12Result {
		var out Fig12Result
		for i, c := range cells {
			serial := res[i-i%len(run.Modes)]
			out.Bars = append(out.Bars, Fig12Bar{Loop: c.loop, Mode: c.mode, Procs: c.procs,
				Norm: stats.Normalize(res[i], serial)})
		}
		return out
	}, print: func(w io.Writer, res Fig12Result) {
		tw := tabulate(w, fmt.Sprintf("Figure 12: execution time breakdown normalized to Serial (scale %s)", h.Scale.Name), "loop\tscheme\ttotal\tBusy\tMem\tSync")
		for _, b := range res.Bars {
			fmt.Fprintf(tw, "%s\t%v_%d\t%.3f\t%.3f\t%.3f\t%.3f\n",
				b.Loop, b.Mode, b.Procs, b.Norm.Total(), b.Norm.Busy, b.Norm.Mem, b.Norm.Sync)
		}
		tw.Flush()
		fmt.Fprintf(w, "paper: HW ≈ 50%% faster than SW; SW has higher Busy and Mem; Track SW has higher Sync\n\n")
	}}
}

// Fig12 reproduces Figure 12. It shares Figure 11's cell grid, so a
// combined run simulates each cell once.
func (h *Harness) Fig12() Fig12Result { return h.fig12().of(h) }

// PrintFig12 renders the figure.
func (h *Harness) PrintFig12(w io.Writer) Fig12Result { return h.fig12().printTo(h, w) }

// ---------------------------------------------------------------------
// Figure 13: execution time when the test fails, normalized to Serial.

// Fig13Row is one loop's forced-failure outcome.
type Fig13Row struct {
	Loop       string
	SerialNorm float64 // 1.0 by construction
	SWNorm     float64
	HWNorm     float64
	SWBars     stats.NormBreakdown
	HWBars     stats.NormBreakdown
}

// Fig13Result aggregates the forced-failure experiment.
type Fig13Result struct {
	Rows   []Fig13Row
	MeanSW float64 // paper: SW ≈ 1.58x Serial
	MeanHW float64 // paper: HW ≈ 1.22x Serial
}

// fig13 is Figure 13: each forced-failure loop under Serial, SW and HW
// (Ocean at 8 processors, the others at 16).
func (h *Harness) fig13() table[Fig13Result] {
	fails := loops.ForcedFails(h.Scale.P3mIters)
	var cells []cell
	for _, w := range fails {
		procs := loops.Procs(strings.TrimSuffix(w.Name, "-fail"))
		build := func() *run.Workload { return w }
		cells = append(cells, cell{build: build, mode: run.Serial, procs: 1},
			cell{build: build, mode: run.SW, procs: procs}, cell{build: build, mode: run.HW, procs: procs})
	}
	return table[Fig13Result]{cells: cells, result: func(res []*run.Result) Fig13Result {
		var out Fig13Result
		var swn, hwn []float64
		for i, w := range fails {
			serial, sw, hw := res[3*i], res[3*i+1], res[3*i+2]
			row := Fig13Row{
				Loop:       w.Name,
				SerialNorm: 1,
				SWNorm:     float64(sw.Cycles) / float64(serial.Cycles),
				HWNorm:     float64(hw.Cycles) / float64(serial.Cycles),
				SWBars:     stats.Normalize(sw, serial),
				HWBars:     stats.Normalize(hw, serial),
			}
			out.Rows = append(out.Rows, row)
			swn = append(swn, row.SWNorm)
			hwn = append(hwn, row.HWNorm)
		}
		out.MeanSW = stats.Mean(swn)
		out.MeanHW = stats.Mean(hwn)
		return out
	}, print: func(w io.Writer, res Fig13Result) {
		tw := tabulate(w, fmt.Sprintf("Figure 13: execution time when the test fails, normalized to Serial (scale %s)", h.Scale.Name), "loop\tSerial\tHW\tSW")
		for _, r := range res.Rows {
			fmt.Fprintf(tw, "%s\t1.00\t%.2f\t%.2f\n", r.Loop, r.HWNorm, r.SWNorm)
		}
		fmt.Fprintf(tw, "mean\t1.00\t%.2f\t%.2f\n", res.MeanHW, res.MeanSW)
		tw.Flush()
		fmt.Fprintf(w, "paper: HW ≈ 1.22x Serial on average, SW ≈ 1.58x; Track dominated by backup/restore\n\n")
	}}
}

// Fig13 reproduces Figure 13 by forcing the failure of one instance of
// each loop (§6.2). The forced-failure loops are synthetic cells, so
// they are not memoized; the 4 loops x 3 schemes grid fans out over the
// worker pool and rows assemble in paper order.
func (h *Harness) Fig13() Fig13Result { return h.fig13().of(h) }

// PrintFig13 renders the figure.
func (h *Harness) PrintFig13(w io.Writer) Fig13Result { return h.fig13().printTo(h, w) }

// ---------------------------------------------------------------------
// Figure 14: scalability of the software and hardware schemes.

// Fig14Series is one loop's speedup curves over processor counts.
type Fig14Series struct {
	Loop  string
	Procs []int
	Ideal []float64
	SW    []float64
	HW    []float64
}

// Fig14Result aggregates the scalability experiment. Ocean is omitted,
// as in the paper (too few iterations for 16 processors).
type Fig14Result struct {
	Series []Fig14Series
}

// scalingLoops and fig14Procs span the Figure 14 grid.
var (
	scalingLoops = []string{"P3m", "Adm", "Track"}
	fig14Procs   = []int{4, 8, 16}
)

// fig14 is Figure 14 over the scalability grid.
func (h *Harness) fig14() table[Fig14Result] {
	return table[Fig14Result]{cells: scalabilityCells(), result: func(res []*run.Result) Fig14Result {
		var out Fig14Result
		for _, name := range scalingLoops {
			serial := res[0]
			s := Fig14Series{Loop: name, Procs: append([]int(nil), fig14Procs...)}
			for i := range fig14Procs {
				ideal, sw, hw := res[1+3*i], res[2+3*i], res[3+3*i]
				s.Ideal = append(s.Ideal, run.Speedup(serial, ideal))
				s.SW = append(s.SW, run.Speedup(serial, sw))
				s.HW = append(s.HW, run.Speedup(serial, hw))
			}
			out.Series = append(out.Series, s)
			res = res[1+3*len(fig14Procs):]
		}
		return out
	}, print: func(w io.Writer, res Fig14Result) {
		tw := tabulate(w, fmt.Sprintf("Figure 14: scalability of the software and hardware schemes (scale %s)", h.Scale.Name), "loop\tprocs\tIdeal\tSW\tHW")
		for _, s := range res.Series {
			for i, p := range s.Procs {
				fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\n", s.Loop, p, s.Ideal[i], s.SW[i], s.HW[i])
			}
		}
		tw.Flush()
		fmt.Fprintf(w, "paper: SW curves saturate earlier; P3m SW is lower at 16 than at 8 processors\n\n")
	}}
}

// Fig14 reproduces Figure 14. Its 30-cell grid is the largest of the
// figure set; simulating it concurrently dominates the parallel speedup
// of a full regeneration.
func (h *Harness) Fig14() Fig14Result { return h.fig14().of(h) }

// PrintFig14 renders the figure.
func (h *Harness) PrintFig14(w io.Writer) Fig14Result { return h.fig14().printTo(h, w) }

// All runs every experiment in paper order. The union of the figure
// grids simulates first so the worker pool sees every independent cell
// at once; the printers then assemble from the runner's kept flights.
func (h *Harness) All(w io.Writer) {
	h.run(append(speedupCells(), scalabilityCells()...))
	PrintLatencies(w)
	h.PrintFig11(w)
	h.PrintFig12(w)
	h.PrintFig13(w)
	h.PrintFig14(w)
}

// ScaleByName resolves a scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "default", "":
		return Default, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (quick|default|paper)", name)
}
