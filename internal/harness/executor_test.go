package harness

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/mem"
	"specrt/internal/run"
)

// Concurrent Result calls for the same cell must dedupe to exactly one
// execution (singleflight) and hand every caller the same result. Run
// under -race this also proves the memo is data-race free.
func TestParallelResultDedup(t *testing.T) {
	h := NewParallel(Quick, 4)
	const callers = 16
	results := make([]*run.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = h.Result("Adm", run.HW, 4)
		}(i)
	}
	wg.Wait()
	if n := h.CellsSimulated(); n != 1 {
		t.Fatalf("CellsSimulated = %d, want 1 (concurrent callers must dedupe)", n)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
	// A second batch over several distinct cells, each requested twice,
	// simulates each exactly once.
	cells := []cell{
		loopCell("Adm", run.HW, 4), // already memoized
		loopCell("Adm", run.SW, 4),
		loopCell("Adm", run.Serial, 1),
		loopCell("Track", run.HW, 4),
	}
	res := h.run(append(cells, cells...))
	if n := h.CellsSimulated(); n != int64(len(cells)) {
		t.Fatalf("CellsSimulated = %d, want %d", n, len(cells))
	}
	for i := range cells {
		if res[i] != res[i+len(cells)] {
			t.Fatalf("cell %d: duplicate requests got different results", i)
		}
	}
	if res[0] != results[0] {
		t.Fatal("batch did not reuse the memoized cell")
	}
}

// The parallel harness must produce byte-identical figure output to a
// strictly sequential run: every cell owns its engine and machine, and
// assembly happens in presentation order.
func TestParallelMatchesSequential(t *testing.T) {
	var seq, par bytes.Buffer
	NewParallel(Quick, 1).All(&seq)
	NewParallel(Quick, 8).All(&par)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel All output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}

	// The CSV emitters must agree as well (plot inputs are rows, not
	// rendered tables).
	var seqCSV, parCSV bytes.Buffer
	hs, hp := NewParallel(Quick, 1), NewParallel(Quick, 8)
	for _, f := range []func(h *Harness, w *bytes.Buffer){
		func(h *Harness, w *bytes.Buffer) { h.Fig11().WriteCSV(w) },
		func(h *Harness, w *bytes.Buffer) { h.Fig12().WriteCSV(w) },
		func(h *Harness, w *bytes.Buffer) { h.Fig13().WriteCSV(w) },
		func(h *Harness, w *bytes.Buffer) { h.Fig14().WriteCSV(w) },
	} {
		f(hs, &seqCSV)
		f(hp, &parCSV)
	}
	if !bytes.Equal(seqCSV.Bytes(), parCSV.Bytes()) {
		t.Fatal("parallel CSV rows differ from sequential")
	}
}

// Ablation sections render concurrently but must emit in the fixed
// presentation order.
func TestParallelAblationsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every ablation twice")
	}
	var seq, par bytes.Buffer
	NewParallel(Quick, 1).Ablations(&seq)
	NewParallel(Quick, 8).Ablations(&par)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("parallel Ablations output differs from sequential")
	}
}

// run must return results in cell order regardless of pool size, and
// run synthetic cells every time they are requested.
func TestParallelMapOrder(t *testing.T) {
	for _, par := range []int{1, 3, 8} {
		h := NewParallel(Quick, par)
		cells := make([]cell, 37)
		for i := range cells {
			name := fmt.Sprint("order-", i)
			cells[i] = cell{mode: run.Serial, procs: 1, build: func() *run.Workload {
				return &run.Workload{
					Name:       name,
					Executions: 1,
					Iterations: func(int) int { return 1 + i%5 },
					Arrays:     []run.ArraySpec{{Name: "A", Elems: 8, ElemSize: 4, Test: core.Plain}},
					Body:       func(_, iter int, c *run.Ctx) { c.Load(0, iter) },
				}
			}}
		}
		for round := 1; round <= 2; round++ {
			for i, r := range h.run(cells) {
				if want := fmt.Sprint("order-", i); r.Workload != want {
					t.Fatalf("par=%d: result %d is %q, want %q", par, i, r.Workload, want)
				}
			}
			if n := h.CellsSimulated(); n != int64(round*len(cells)) {
				t.Fatalf("par=%d: CellsSimulated = %d after %d rounds, want %d", par, n, round, round*len(cells))
			}
		}
	}
}

// Ablations reuse figure cells through the memo: after Figure 11, the
// contention and write-stall sections each simulate only their two new
// cells (without contention; stalling writes).
func TestAblationsReuseFigureCells(t *testing.T) {
	h := NewParallel(Quick, 2)
	h.Fig11()
	for _, sec := range []struct {
		name  string
		print func(io.Writer)
	}{
		{"contention", func(w io.Writer) { h.PrintAblationContention(w) }},
		{"write stall", func(w io.Writer) { h.PrintAblationWriteStall(w) }},
	} {
		before := h.CellsSimulated()
		sec.print(io.Discard)
		if n := h.CellsSimulated() - before; n != 2 {
			t.Errorf("%s ablation simulated %d cells after Fig11, want 2", sec.name, n)
		}
	}
}

// The whole suite's simulation count is pinned at every pool size: All
// simulates each distinct paper-loop cell once plus every synthetic
// cell, and Ablations after it adds only the cells no figure shares.
// A change that re-simulates a shared key, or stops sharing one, moves
// these numbers.
func TestSuiteSimulationCount(t *testing.T) {
	for _, par := range []int{1, 4} {
		h := NewParallel(Quick, par)
		h.All(io.Discard)
		if n := h.CellsSimulated(); n != 46 {
			t.Errorf("par=%d: All simulated %d cells, want 46", par, n)
		}
		h.Ablations(io.Discard)
		if n := h.CellsSimulated(); n != 84 {
			t.Errorf("par=%d: All then Ablations simulated %d cells, want 84", par, n)
		}
	}
}

// Result memoizes a figure cell under the content address specrtd
// caches the same job under (a JobSpec with the request's defaults), and
// the memoized result matches what a job Runner resolves and simulates.
func TestResultMemoKeyMatchesJobSpec(t *testing.T) {
	h := NewParallel(Quick, 2)
	h.Fig11()
	runner := NewRunner(Quick, 2)
	for _, c := range speedupCells() {
		spec := JobSpec{Workload: c.loop, Config: run.Config{Procs: c.procs, Mode: c.mode, Contention: true}}
		m := h.runner.flights[spec.Key()]
		if m == nil {
			t.Fatalf("%s %v/%d: no memo entry under %s", c.loop, c.mode, c.procs, spec.Key())
		}
		if got := h.Result(c.loop, c.mode, c.procs); got != m.res {
			t.Fatalf("%s %v/%d: Result is not the memoized cell", c.loop, c.mode, c.procs)
		}
		job, err := runner.Run(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if job.Cycles != m.res.Cycles || job.Breakdown != m.res.Breakdown {
			t.Fatalf("%s %v/%d: job cycles %d, harness cell %d", c.loop, c.mode, c.procs, job.Cycles, m.res.Cycles)
		}
	}
	if n := h.CellsSimulated(); n != 16 {
		t.Fatalf("CellsSimulated = %d, want the 16 speedup cells", n)
	}
}

// Harness-wide knobs reach every cell of every experiment except where
// the experiment sweeps that field itself; the wide ablation owns the
// mesh shape and never inherits an explicit MeshW/MeshH.
func TestKnobsReachEveryCell(t *testing.T) {
	h := NewParallel(Quick, 1)
	h.Topology, h.MeshW, h.MeshH = interconnect.Mesh, 4, 4
	h.Placement, h.DirMode = mem.Blocked, directory.Coarse

	type sweeps struct{ topology, placement, dirMode, mesh bool }
	type experiment struct {
		section
		sweeps
	}
	tables := []experiment{
		{h.fig11().section("fig11"), sweeps{}},
		{h.fig12().section("fig12"), sweeps{}},
		{h.fig13().section("fig13"), sweeps{}},
		{h.fig14().section("fig14"), sweeps{}},
		{h.directors(0).section("directors"), sweeps{}},
		{h.wide(wideLadder(nil)).section("wide"), sweeps{topology: true, dirMode: true, mesh: true}},
	}
	for _, s := range h.ablationSections() {
		sw := sweeps{}
		if s.name == "meshcontention" {
			sw = sweeps{topology: true, placement: true}
		}
		tables = append(tables, experiment{s, sw})
	}
	for _, tb := range tables {
		if len(tb.cells) == 0 {
			t.Fatalf("%s: no cells", tb.name)
		}
		for i, c := range tb.cells {
			cfg := h.config(c)
			if !tb.topology && cfg.Topology != interconnect.Mesh {
				t.Errorf("%s cell %d: topology %v, want the harness's mesh", tb.name, i, cfg.Topology)
			}
			if !tb.placement && cfg.Placement != mem.Blocked {
				t.Errorf("%s cell %d: placement %v, want blocked", tb.name, i, cfg.Placement)
			}
			if !tb.dirMode && cfg.DirMode != directory.Coarse {
				t.Errorf("%s cell %d: dirmode %v, want coarse", tb.name, i, cfg.DirMode)
			}
			if !tb.mesh && (cfg.MeshW != 4 || cfg.MeshH != 4) {
				t.Errorf("%s cell %d: mesh %dx%d, want the harness's 4x4", tb.name, i, cfg.MeshW, cfg.MeshH)
			}
			if tb.name == "wide" && (cfg.MeshW != 0 || cfg.MeshH != 0) {
				t.Errorf("wide cell %d inherited mesh shape %dx%d", i, cfg.MeshW, cfg.MeshH)
			}
		}
	}
}
