package harness

import (
	"fmt"
	"io"

	"specrt/internal/core"
	"specrt/internal/loops"
	"specrt/internal/run"
	"specrt/internal/sched"
)

// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out.

// ChunkRow is one point of the Track chunk-size ablation.
type ChunkRow struct {
	Chunk    int // 0 = static
	Cycles   int64
	Failures int
}

// trackChunks is the Track chunk-size sweep. The row of Track's own HW
// schedule is Figure 11's Track HW@16 cell, so it takes that cell, a
// memo hit, instead of simulating it again under an override.
func (h *Harness) trackChunks() table[[]ChunkRow] {
	chunks := []int{1, 2, 4, 8, 16, 32, 0}
	own := loops.Track().HWSched
	var cells []cell
	for _, chunk := range chunks {
		s := &sched.Config{Kind: sched.Dynamic, Chunk: chunk}
		if chunk == 0 {
			s = &sched.Config{Kind: sched.Static}
		}
		c := loopCell("Track", run.HW, 16)
		if *s != own {
			c.set = func(c *run.Config) { c.SchedOverride = s }
		}
		cells = append(cells, c)
	}
	return table[[]ChunkRow]{cells: cells, result: eachRow(func(i int, r *run.Result) ChunkRow {
		return ChunkRow{Chunk: chunks[i], Cycles: r.Cycles, Failures: r.Failures}
	}), print: func(w io.Writer, rows []ChunkRow) {
		tw := tabulate(w, fmt.Sprintf("Ablation: Track HW dynamic block size (scale %s)", h.Scale.Name), "chunk\tcycles\tfailed executions")
		for _, r := range rows {
			name := fmt.Sprint(r.Chunk)
			if r.Chunk == 0 {
				name = "static"
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\n", name, r.Cycles, r.Failures)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: chunk 1 fails the special executions; small blocks pass and balance best\n\n")
	}}
}

// AblationTrackChunks sweeps the dynamic-scheduling block size for Track
// under the HW scheme (§4.1 discusses superiteration size; §5.2 notes
// Track passes "if the iterations are scheduled in blocks of a few
// iterations each"). Chunk 1 splits the communicating pairs across
// processors and fails; larger chunks pass but lose balance.
func (h *Harness) AblationTrackChunks() []ChunkRow { return h.trackChunks().of(h) }

// PrintAblationTrackChunks renders the chunk sweep.
func (h *Harness) PrintAblationTrackChunks(w io.Writer) []ChunkRow {
	return h.trackChunks().printTo(h, w)
}

// ContentionRow compares a loop with and without home-node contention.
type ContentionRow struct {
	Loop              string
	WithContention    int64
	WithoutContention int64
}

// contention pairs Figure 11's P3m and Track HW cells with the same
// cells without the contention model.
func (h *Harness) contention() table[[]ContentionRow] {
	names := []string{"P3m", "Track"}
	var cells []cell
	for _, name := range names {
		cells = append(cells, loopCell(name, run.HW, 16), cell{loop: name, mode: run.HW, procs: 16,
			set: func(c *run.Config) { c.Contention = false }})
	}
	return table[[]ContentionRow]{cells: cells, result: func(res []*run.Result) []ContentionRow {
		var rows []ContentionRow
		for i, name := range names {
			rows = append(rows, ContentionRow{
				Loop: name, WithContention: res[2*i].Cycles, WithoutContention: res[2*i+1].Cycles})
		}
		return rows
	}, print: func(w io.Writer, rows []ContentionRow) {
		tw := tabulate(w, fmt.Sprintf("Ablation: home-node contention (HW, 16 procs, scale %s)", h.Scale.Name), "loop\twith contention\twithout\tslowdown")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\n", r.Loop, r.WithContention, r.WithoutContention,
				float64(r.WithContention)/float64(r.WithoutContention))
		}
		tw.Flush()
		fmt.Fprintln(w)
	}}
}

// AblationContention quantifies queueing delay at the home directories
// (the paper: latencies "increase with resource contention").
func (h *Harness) AblationContention() []ContentionRow { return h.contention().of(h) }

// PrintAblationContention renders the contention comparison.
func (h *Harness) PrintAblationContention(w io.Writer) []ContentionRow {
	return h.contention().printTo(h, w)
}

// GrainRow compares per-word and per-line access bits.
type GrainRow struct {
	Grain    string
	Failures int
	Cycles   int64
}

// bitGranularity is the access-bit granularity comparison.
func (h *Harness) bitGranularity() table[[]GrainRow] {
	mk := func() *run.Workload {
		return &run.Workload{
			Name:       "interleaved",
			Executions: 1,
			Iterations: func(int) int { return 256 },
			Arrays: []run.ArraySpec{
				{Name: "A", Elems: 256, ElemSize: 4, Test: core.NonPriv},
			},
			Body: func(exec, iter int, c *run.Ctx) {
				c.Compute(60)
				// Iteration i owns element i: consecutive iterations
				// (different processors under chunk-1 dynamic
				// scheduling) share cache lines but not words.
				c.Store(0, iter)
				c.Load(0, iter)
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
		}
	}
	grains := []string{"word", "line"}
	var cells []cell
	for _, g := range grains {
		cells = append(cells, cell{build: mk, mode: run.HW, procs: 8,
			set: func(c *run.Config) { c.LineGrainBits = g == "line" }})
	}
	return table[[]GrainRow]{cells: cells, result: eachRow(func(i int, r *run.Result) GrainRow {
		return GrainRow{Grain: grains[i], Failures: r.Failures, Cycles: r.Cycles}
	}), print: func(w io.Writer, rows []GrainRow) {
		tw := tabulate(w, "Ablation: access-bit granularity (non-priv, interleaved elements)", "granularity\tfailed\tcycles")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\n", r.Grain, r.Failures, r.Cycles)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: per-word bits pass; per-line bits fail spuriously on false sharing\n\n")
	}}
}

// AblationBitGranularity runs a non-privatization loop whose processors
// interleave within cache lines. Per-word bits (the paper's design,
// §4.1) pass; per-line bits fail spuriously on false sharing.
func (h *Harness) AblationBitGranularity() []GrainRow { return h.bitGranularity().of(h) }

// PrintAblationBitGranularity renders the granularity comparison.
func (h *Harness) PrintAblationBitGranularity(w io.Writer) []GrainRow {
	return h.bitGranularity().printTo(h, w)
}

// RicoRow compares privatization with and without read-in support.
type RicoRow struct {
	RICO     bool
	Failures int
}

// readIn is the read-in/copy-out comparison.
func (h *Harness) readIn() table[[]RicoRow] {
	mk := func(rico bool) *run.Workload {
		return &run.Workload{
			Name:       "readin",
			Executions: 1,
			Iterations: func(int) int { return 64 },
			Arrays: []run.ArraySpec{
				{Name: "A", Elems: 64, ElemSize: 4, Test: core.Priv, RICO: rico, LiveOut: true},
			},
			Body: func(exec, iter int, c *run.Ctx) {
				// Read the pre-loop value, then update: read-in and
				// copy-out both needed; no cross-iteration flow.
				c.Load(0, iter)
				c.Compute(80)
				c.Store(0, iter)
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
		}
	}
	ricos := []bool{true, false}
	var cells []cell
	for _, rico := range ricos {
		cells = append(cells, cell{build: func() *run.Workload { return mk(rico) }, mode: run.HW, procs: 8})
	}
	return table[[]RicoRow]{cells: cells, result: eachRow(func(i int, r *run.Result) RicoRow {
		return RicoRow{RICO: ricos[i], Failures: r.Failures}
	}), print: func(w io.Writer, rows []RicoRow) {
		tw := tabulate(w, "Ablation: privatization with vs without read-in/copy-out support", "read-in/copy-out\tfailed executions")
		for _, r := range rows {
			fmt.Fprintf(tw, "%t\t%d\n", r.RICO, r.Failures)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: read-first loops pass only with read-in support\n\n")
	}}
}

// AblationReadIn shows the value of read-in/copy-out support (§3.3): a
// loop whose first access to each element is a read passes only with
// RICO.
func (h *Harness) AblationReadIn() []RicoRow { return h.readIn().of(h) }

// PrintAblationReadIn renders the read-in comparison.
func (h *Harness) PrintAblationReadIn(w io.Writer) []RicoRow { return h.readIn().printTo(h, w) }

// ablationSections lists the ablations in presentation order.
func (h *Harness) ablationSections() []section {
	return []section{
		h.trackChunks().section("trackchunks"),
		h.contention().section("contention"),
		h.bitGranularity().section("bitgrain"),
		h.readIn().section("readin"),
		h.epochs().section("epochs"),
		h.sparseBackup().section("sparsebackup"),
		h.privGranularity().section("privgrain"),
		h.adaptive().section("adaptive"),
		h.writeStall().section("writestall"),
		h.directoryOccupancy().section("diroccupancy"),
		h.meshContention().section("meshcontention"),
	}
}

// Ablations runs all of them. Every section's cells simulate as one
// batch on the worker pool (figure cells the sections reuse are kept
// flights); the sections then render in the fixed presentation order, so
// the output is byte-identical to a sequential run.
func (h *Harness) Ablations(w io.Writer) {
	secs := h.ablationSections()
	var cells []cell
	for _, s := range secs {
		cells = append(cells, s.cells...)
	}
	res := h.run(cells)
	for _, s := range secs {
		s.render(w, res[:len(s.cells)])
		res = res[len(s.cells):]
	}
}
