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
	"sync"
	"sync/atomic"
	"text/tabwriter"

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
// share runs) and distributes independent cells over a bounded worker
// pool. It is safe for concurrent use.
type Harness struct {
	Scale Scale

	// Topology and Placement apply to every simulated cell (the
	// defaults — interconnect.Ideal, mem.RoundRobin — reproduce the
	// paper's machine). Set them before the first Result call; cells
	// are memoized per harness, so a harness models exactly one
	// network/placement configuration.
	Topology  interconnect.Kind
	Placement mem.Placement

	// MeshW/MeshH force an explicit WxH mesh shape when Topology is the
	// mesh (zero = the near-square auto shape), and DirMode selects the
	// directory sharer representation (full-map by default; coarse
	// enables the limited-pointer/coarse-vector directory). Like
	// Topology, they apply to every figure cell.
	MeshW, MeshH int
	DirMode      directory.Mode

	// NoFastPath pins per-instruction stepped execution for every cell
	// (run.Config.NoFastPath). Results are byte-identical either way —
	// the CI smoke test asserts exactly that by diffing a full run with
	// the flag against one without.
	NoFastPath bool

	par int           // worker-pool size
	sem chan struct{} // bounds concurrently running simulations

	mu    sync.Mutex
	cells map[cellKey]*cell

	simulated atomic.Int64 // cells actually executed (not memo hits)
}

// New creates a harness at the given scale that uses every host core.
func New(sc Scale) *Harness { return NewParallel(sc, 0) }

// NewParallel creates a harness with an explicit worker-pool size;
// par <= 0 selects runtime.NumCPU(). With par == 1 the harness runs every
// experiment strictly sequentially; any larger pool produces byte-identical
// results, because each cell is an independent deterministic simulation and
// output assembly stays in presentation order.
func NewParallel(sc Scale, par int) *Harness {
	par = parallelism(par)
	return &Harness{
		Scale: sc,
		par:   par,
		sem:   make(chan struct{}, par),
		cells: make(map[cellKey]*cell),
	}
}

// Parallelism reports the worker-pool size.
func (h *Harness) Parallelism() int { return h.par }

// CellsSimulated reports how many distinct cells have actually been
// simulated (memoized hits excluded) — used to verify singleflight
// deduplication under concurrency.
func (h *Harness) CellsSimulated() int64 { return h.simulated.Load() }

// workload instantiates a paper loop at the harness scale.
func (h *Harness) workload(name string) (*run.Workload, int) {
	switch name {
	case "Ocean":
		return loops.Ocean(), h.Scale.OceanExecs
	case "P3m":
		return loops.P3m(h.Scale.P3mIters), 1
	case "Adm":
		return loops.Adm(), h.Scale.AdmExecs
	case "Track":
		return loops.Track(), h.Scale.TrackExecs
	}
	panic("harness: unknown workload " + name)
}

// LoopNames lists the paper's loops in presentation order.
var LoopNames = []string{"Ocean", "P3m", "Adm", "Track"}

// Result returns the (memoized) simulation of a loop under a mode and
// processor count. Concurrent calls for the same cell dedupe to a single
// execution (singleflight); the losers block until the winner finishes
// and share its result. The worker-pool semaphore bounds how many cells
// simulate at once machine-wide.
func (h *Harness) Result(name string, mode run.Mode, procs int) *run.Result {
	k := cellKey{name: name, mode: mode, procs: procs}
	h.mu.Lock()
	c := h.cells[k]
	if c == nil {
		c = &cell{}
		h.cells[k] = c
	}
	h.mu.Unlock()
	c.once.Do(func() {
		h.sem <- struct{}{}
		defer func() { <-h.sem }()
		w, maxExec := h.workload(name)
		c.res = run.MustExecute(w, run.Config{
			Procs:         procs,
			Mode:          mode,
			Contention:    true,
			MaxExecutions: maxExec,
			Topology:      h.Topology,
			Placement:     h.Placement,
			MeshW:         h.MeshW,
			MeshH:         h.MeshH,
			DirMode:       h.DirMode,
			NoFastPath:    h.NoFastPath,
		})
		h.simulated.Add(1)
	})
	return c.res
}

// Serial returns the uniprocessor baseline for a loop.
func (h *Harness) Serial(name string) *run.Result {
	return h.Result(name, run.Serial, 1)
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

// Fig11 reproduces Figure 11. The sixteen cells simulate concurrently on
// the worker pool; assembly below hits only memoized results, in
// presentation order.
func (h *Harness) Fig11() Fig11Result {
	h.warm(speedupCells())
	var res Fig11Result
	var hws, sws, ids []float64
	for _, name := range LoopNames {
		procs := loops.Procs(name)
		serial := h.Serial(name)
		ideal := h.Result(name, run.Ideal, procs)
		sw := h.Result(name, run.SW, procs)
		hw := h.Result(name, run.HW, procs)
		row := Fig11Row{
			Loop:   name,
			Procs:  procs,
			Ideal:  run.Speedup(serial, ideal),
			SW:     run.Speedup(serial, sw),
			HW:     run.Speedup(serial, hw),
			EffIdl: stats.Efficiency(serial, ideal),
			EffSW:  stats.Efficiency(serial, sw),
			EffHW:  stats.Efficiency(serial, hw),
		}
		res.Rows = append(res.Rows, row)
		hws = append(hws, row.HW)
		sws = append(sws, row.SW)
		ids = append(ids, row.Ideal)
	}
	res.MeanHW = stats.Mean(hws)
	res.MeanSW = stats.Mean(sws)
	res.MeanIdeal = stats.Mean(ids)
	return res
}

// PrintFig11 renders the figure as a table.
func (h *Harness) PrintFig11(w io.Writer) Fig11Result {
	res := h.Fig11()
	fmt.Fprintf(w, "Figure 11: speedups of the parallel executions (scale %s)\n", h.Scale.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "loop\tprocs\tIdeal\tSW\tHW\teff(Ideal)\teff(SW)\teff(HW)")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Loop, r.Procs, r.Ideal, r.SW, r.HW, r.EffIdl, r.EffSW, r.EffHW)
	}
	fmt.Fprintf(tw, "mean\t\t%.2f\t%.2f\t%.2f\t\t\t\n", res.MeanIdeal, res.MeanSW, res.MeanHW)
	tw.Flush()
	fmt.Fprintf(w, "paper: HW avg ≈ 6.7 @16, SW avg ≈ 2.9 @16; HW ≈ 2x SW and halfway to Ideal\n\n")
	return res
}

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

// Fig12 reproduces Figure 12. It shares Figure 11's cell grid, so a
// combined run simulates each cell once.
func (h *Harness) Fig12() Fig12Result {
	h.warm(speedupCells())
	var res Fig12Result
	for _, name := range LoopNames {
		procs := loops.Procs(name)
		serial := h.Serial(name)
		for _, mode := range run.Modes {
			p := procs
			if mode == run.Serial {
				p = 1
			}
			r := h.Result(name, mode, p)
			res.Bars = append(res.Bars, Fig12Bar{
				Loop:  name,
				Mode:  mode,
				Procs: p,
				Norm:  stats.Normalize(r, serial),
			})
		}
	}
	return res
}

// PrintFig12 renders the figure.
func (h *Harness) PrintFig12(w io.Writer) Fig12Result {
	res := h.Fig12()
	fmt.Fprintf(w, "Figure 12: execution time breakdown normalized to Serial (scale %s)\n", h.Scale.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "loop\tscheme\ttotal\tBusy\tMem\tSync")
	for _, b := range res.Bars {
		fmt.Fprintf(tw, "%s\t%v_%d\t%.3f\t%.3f\t%.3f\t%.3f\n",
			b.Loop, b.Mode, b.Procs, b.Norm.Total(), b.Norm.Busy, b.Norm.Mem, b.Norm.Sync)
	}
	tw.Flush()
	fmt.Fprintf(w, "paper: HW ≈ 50%% faster than SW; SW has higher Busy and Mem; Track SW has higher Sync\n\n")
	return res
}

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

// Fig13 reproduces Figure 13 by forcing the failure of one instance of
// each loop (§6.2). The forced-failure runs are not shared with other
// figures, so they are not memoized; the 4 loops x 3 schemes grid fans
// out directly over the worker pool and rows assemble in paper order.
func (h *Harness) Fig13() Fig13Result {
	fails := loops.ForcedFails(h.Scale.P3mIters)
	results := make([][3]*run.Result, len(fails)) // [loop][serial, sw, hw]
	h.parallelMap(len(fails)*3, func(j int) {
		w, slot := fails[j/3], j%3
		procs := 16
		if w.Name == "Ocean-fail" {
			procs = 8
		}
		cfg := run.Config{Procs: procs, Contention: true,
			Topology: h.Topology, Placement: h.Placement,
			MeshW: h.MeshW, MeshH: h.MeshH, DirMode: h.DirMode,
			NoFastPath: h.NoFastPath}
		switch slot {
		case 0:
			cfg.Procs, cfg.Mode = 1, run.Serial
		case 1:
			cfg.Mode = run.SW
		case 2:
			cfg.Mode = run.HW
		}
		results[j/3][slot] = run.MustExecute(w, cfg)
	})
	var res Fig13Result
	var swn, hwn []float64
	for i, w := range fails {
		serial, sw, hw := results[i][0], results[i][1], results[i][2]
		row := Fig13Row{
			Loop:       w.Name,
			SerialNorm: 1,
			SWNorm:     float64(sw.Cycles) / float64(serial.Cycles),
			HWNorm:     float64(hw.Cycles) / float64(serial.Cycles),
			SWBars:     stats.Normalize(sw, serial),
			HWBars:     stats.Normalize(hw, serial),
		}
		res.Rows = append(res.Rows, row)
		swn = append(swn, row.SWNorm)
		hwn = append(hwn, row.HWNorm)
	}
	res.MeanSW = stats.Mean(swn)
	res.MeanHW = stats.Mean(hwn)
	return res
}

// PrintFig13 renders the figure.
func (h *Harness) PrintFig13(w io.Writer) Fig13Result {
	res := h.Fig13()
	fmt.Fprintf(w, "Figure 13: execution time when the test fails, normalized to Serial (scale %s)\n", h.Scale.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "loop\tSerial\tHW\tSW")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%s\t1.00\t%.2f\t%.2f\n", r.Loop, r.HWNorm, r.SWNorm)
	}
	fmt.Fprintf(tw, "mean\t1.00\t%.2f\t%.2f\n", res.MeanHW, res.MeanSW)
	tw.Flush()
	fmt.Fprintf(w, "paper: HW ≈ 1.22x Serial on average, SW ≈ 1.58x; Track dominated by backup/restore\n\n")
	return res
}

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

// Fig14 reproduces Figure 14. Its 30-cell grid is the largest of the
// figure set; warming it concurrently dominates the parallel speedup of
// a full regeneration.
func (h *Harness) Fig14() Fig14Result {
	h.warm(scalabilityCells())
	procCounts := []int{4, 8, 16}
	var res Fig14Result
	for _, name := range []string{"P3m", "Adm", "Track"} {
		serial := h.Serial(name)
		s := Fig14Series{Loop: name, Procs: procCounts}
		for _, p := range procCounts {
			s.Ideal = append(s.Ideal, run.Speedup(serial, h.Result(name, run.Ideal, p)))
			s.SW = append(s.SW, run.Speedup(serial, h.Result(name, run.SW, p)))
			s.HW = append(s.HW, run.Speedup(serial, h.Result(name, run.HW, p)))
		}
		res.Series = append(res.Series, s)
	}
	return res
}

// PrintFig14 renders the figure.
func (h *Harness) PrintFig14(w io.Writer) Fig14Result {
	res := h.Fig14()
	fmt.Fprintf(w, "Figure 14: scalability of the software and hardware schemes (scale %s)\n", h.Scale.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "loop\tprocs\tIdeal\tSW\tHW")
	for _, s := range res.Series {
		for i, p := range s.Procs {
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\n", s.Loop, p, s.Ideal[i], s.SW[i], s.HW[i])
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "paper: SW curves saturate earlier; P3m SW is lower at 16 than at 8 processors\n\n")
	return res
}

// All runs every experiment in paper order. The union of the figure
// grids warms first so the worker pool sees every independent cell at
// once; the printers then assemble from the memo.
func (h *Harness) All(w io.Writer) {
	h.warm(append(speedupCells(), scalabilityCells()...))
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
