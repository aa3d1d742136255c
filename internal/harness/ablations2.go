package harness

import (
	"fmt"
	"io"

	"specrt/internal/core"
	"specrt/internal/loops"
	"specrt/internal/machine"
	"specrt/internal/run"
	"specrt/internal/sched"
)

// EpochRow is one point of the timestamp-overflow ablation.
type EpochRow struct {
	EpochIters int // 0 = unlimited time stamps
	Cycles     int64
	Failures   int
}

// epochs sweeps the §3.3 overflow-synchronization period on a
// privatization workload.
func (h *Harness) epochs() table[[]EpochRow] {
	mk := func() *run.Workload {
		return &run.Workload{
			Name:       "epochs",
			Executions: 1,
			Iterations: func(int) int { return 1024 },
			Arrays: []run.ArraySpec{
				{Name: "T", Elems: 256, ElemSize: 4, Test: core.Priv, RICO: true},
			},
			Body: func(exec, iter int, c *run.Ctx) {
				c.Store(0, iter%256)
				c.Compute(120)
				c.Load(0, iter%256)
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 4},
		}
	}
	periods := []int{0, 512, 128, 32, 8}
	var cells []cell
	for _, epoch := range periods {
		cells = append(cells, cell{build: mk, mode: run.HW, procs: 8,
			set: func(c *run.Config) { c.EpochIters = epoch }})
	}
	return table[[]EpochRow]{cells: cells, result: eachRow(func(i int, r *run.Result) EpochRow {
		return EpochRow{EpochIters: periods[i], Cycles: r.Cycles, Failures: r.Failures}
	}), print: func(w io.Writer, rows []EpochRow) {
		tw := tabulate(w, "Ablation: timestamp-overflow synchronization period (§3.3; priv loop, 8 procs)", "iters/epoch\ttimestamp bits\tcycles\tfailed")
		for _, r := range rows {
			name, bits := "off", "unbounded"
			if r.EpochIters > 0 {
				b := 1
				for 1<<b < r.EpochIters {
					b++
				}
				name, bits = fmt.Sprint(r.EpochIters), fmt.Sprint(b)
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", name, bits, r.Cycles, r.Failures)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: correctness at every period; smaller epochs trade synchronization cost for narrower time stamps\n\n")
	}}
}

// AblationEpochs sweeps the §3.3 overflow-synchronization period on a
// privatization workload: smaller epochs mean narrower time stamps but
// more all-processor synchronizations.
func (h *Harness) AblationEpochs() []EpochRow { return h.epochs().of(h) }

// PrintAblationEpochs renders the epoch sweep.
func (h *Harness) PrintAblationEpochs(w io.Writer) []EpochRow { return h.epochs().printTo(h, w) }

// SparseRow compares full-array and save-on-first-write backup.
type SparseRow struct {
	Strategy string
	PassCost int64 // cycles of a passing Track-like run
	FailCost int64 // cycles of a forced failure (backup + restore heavy)
}

// sparseBackup runs a sparse scatter loop, passing and forced to fail,
// under each §2.2.1 backup strategy.
func (h *Harness) sparseBackup() table[[]SparseRow] {
	mk := func(sparse, fail bool) *run.Workload {
		return &run.Workload{
			Name:       "scatter-backup",
			Executions: 1,
			Iterations: func(int) int { return 128 },
			Arrays: []run.ArraySpec{
				{Name: "G", Elems: 1 << 15, ElemSize: 4, Test: core.NonPriv, SparseBackup: sparse},
			},
			Body: func(_, iter int, c *run.Ctx) {
				c.Compute(150)
				// Two scattered writes per iteration into disjoint
				// ranges: 256 of 32768 elements are modified.
				c.Store(0, iter*17)
				c.Store(0, 10000+iter*31)
				if fail && iter == 100 {
					c.Load(0, 50*17) // element iteration 50 wrote
				}
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
		}
	}
	strategies := []string{"full copy", "save-on-first-write"}
	var cells []cell
	for i := range strategies {
		for _, fail := range []bool{false, true} {
			cells = append(cells, cell{build: func() *run.Workload { return mk(i == 1, fail) },
				mode: run.HW, procs: 16})
		}
	}
	return table[[]SparseRow]{cells: cells, result: func(res []*run.Result) []SparseRow {
		var rows []SparseRow
		for i, name := range strategies {
			rows = append(rows, SparseRow{Strategy: name, PassCost: res[2*i].Cycles, FailCost: res[2*i+1].Cycles})
		}
		return rows
	}, print: func(w io.Writer, rows []SparseRow) {
		tw := tabulate(w, "Ablation: backup strategy (§2.2.1; sparse scatter loop, 16 procs, HW)", "strategy\tpassing run\tforced failure")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\n", r.Strategy, r.PassCost, r.FailCost)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: saving on first write wins when few elements are modified\n\n")
	}}
}

// AblationSparseBackup compares the §2.2.1 backup strategies on a
// sparse scatter loop: a large array of which each execution writes only
// a few hundred elements. Copying the whole array up front is then far
// more expensive than saving elements just before their first write.
func (h *Harness) AblationSparseBackup() []SparseRow { return h.sparseBackup().of(h) }

// PrintAblationSparseBackup renders the backup-strategy comparison.
func (h *Harness) PrintAblationSparseBackup(w io.Writer) []SparseRow {
	return h.sparseBackup().printTo(h, w)
}

// GranularityRow is one point of the privatization superiteration sweep.
type GranularityRow struct {
	Name        string
	Cycles      int64
	SpecSignals uint64 // read-first + first-write messages
	TagClears   uint64 // BeginIter operations (per-superiteration resets)
}

// privGranularity sweeps the privatization superiteration size through
// the schedule.
func (h *Harness) privGranularity() table[[]GranularityRow] {
	mk := func(kind sched.Kind, chunk int) *run.Workload {
		return &run.Workload{
			Name:       "privgrain",
			Executions: 1,
			Iterations: func(int) int { return 512 },
			Arrays: []run.ArraySpec{
				{Name: "T", Elems: 128, ElemSize: 4, Test: core.Priv, RICO: true},
			},
			Body: func(exec, iter int, c *run.Ctx) {
				// A hot read-only set: every (super)iteration's first
				// read of these elements is a read-first and signals
				// the shared directory, so the signal count scales
				// with the number of superiterations (§4.1).
				c.Load(0, iter%16)
				c.Load(0, 16+iter%16)
				c.Compute(90)
				// Plus a private scratch slot per iteration.
				c.Store(0, 32+iter%96)
				c.Load(0, 32+iter%96)
			},
			HWSched: sched.Config{Kind: kind, Chunk: chunk},
		}
	}
	cases := []struct {
		name  string
		kind  sched.Kind
		chunk int
	}{
		{"iteration-wise (dynamic, chunk 1)", sched.Dynamic, 1},
		{"superiterations of 8 (dynamic)", sched.Dynamic, 8},
		{"superiterations of 32 (block-cyclic)", sched.BlockCyclic, 32},
		{"processor-wise (static)", sched.Static, 0},
	}
	var cells []cell
	for _, tc := range cases {
		cells = append(cells, cell{build: func() *run.Workload { return mk(tc.kind, tc.chunk) },
			mode: run.HW, procs: 8})
	}
	return table[[]GranularityRow]{cells: cells, result: eachRow(func(i int, r *run.Result) GranularityRow {
		if r.Failures != 0 {
			panic("privgrain workload failed: " + r.FirstFailure.Error())
		}
		return GranularityRow{
			Name:        cases[i].name,
			Cycles:      r.Cycles,
			SpecSignals: r.CoreStats.ReadFirstSignals + r.CoreStats.FirstWriteSignals + r.CoreStats.ReadIns,
			TagClears:   r.MachineStats.Messages, // deferred messages overall
		}
	}), print: func(w io.Writer, rows []GranularityRow) {
		tw := tabulate(w, "Ablation: privatization superiteration size (§4.1; priv loop, 8 procs, HW)", "granularity\tcycles\tspec signals\tprotocol messages")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Name, r.Cycles, r.SpecSignals, r.TagClears)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: coarser superiterations eliminate messages and protocol tests (§4.1)\n\n")
	}}
}

// AblationPrivGranularity demonstrates §4.1's superiteration discussion:
// grouping iterations into chunks (block scheduling) and, at the extreme,
// one superiteration per processor (processor-wise) eliminates messages
// and per-iteration tag resets for the privatization protocol, at the
// price of scheduling freedom.
func (h *Harness) AblationPrivGranularity() []GranularityRow { return h.privGranularity().of(h) }

// PrintAblationPrivGranularity renders the superiteration sweep.
func (h *Harness) PrintAblationPrivGranularity(w io.Writer) []GranularityRow {
	return h.privGranularity().printTo(h, w)
}

// AdaptiveRow compares always-speculate with the §2.2.4 adaptive policy
// on a loop that is never parallel.
type AdaptiveRow struct {
	Policy    string
	Cycles    int64
	Failures  int
	Fallbacks int
}

// adaptive runs a never-parallel loop for several executions under HW
// and SW, with and without the success-rate heuristic.
func (h *Harness) adaptive() table[[]AdaptiveRow] {
	mk := func() *run.Workload {
		return &run.Workload{
			Name:       "serial-chain",
			Executions: 8,
			Iterations: func(int) int { return 128 },
			Arrays: []run.ArraySpec{
				{Name: "A", Elems: 129, ElemSize: 4, Test: core.NonPriv},
			},
			Body: func(exec, iter int, c *run.Ctx) {
				c.Load(0, iter)
				c.Compute(80)
				c.Store(0, iter+1)
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 1},
		}
	}
	var names []string
	var cells []cell
	for _, mode := range []run.Mode{run.HW, run.SW} {
		for _, adaptive := range []int{0, 2} {
			name := fmt.Sprintf("%v, always speculate", mode)
			if adaptive > 0 {
				name = fmt.Sprintf("%v, adaptive (stop after %d failures)", mode, adaptive)
			}
			names = append(names, name)
			cells = append(cells, cell{build: mk, mode: mode, procs: 8,
				set: func(c *run.Config) { c.AdaptiveAfter = adaptive }})
		}
	}
	return table[[]AdaptiveRow]{cells: cells, result: eachRow(func(i int, r *run.Result) AdaptiveRow {
		return AdaptiveRow{Policy: names[i], Cycles: r.Cycles,
			Failures: r.Failures, Fallbacks: r.SerialFallbacks}
	}), print: func(w io.Writer, rows []AdaptiveRow) {
		tw := tabulate(w, "Ablation: adaptive speculation (§2.2.4; never-parallel loop, 8 executions)", "policy\tcycles\tfailed\tserial fallbacks")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Policy, r.Cycles, r.Failures, r.Fallbacks)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: the heuristic matters for SW (whole failed loops are wasted) but\n",
			"          barely for HW, whose failures already cost ~nothing (§6.2)\n\n")
	}}
}

// AblationAdaptive runs a never-parallel loop for several executions
// under HW, with and without the success-rate heuristic.
func (h *Harness) AblationAdaptive() []AdaptiveRow { return h.adaptive().of(h) }

// PrintAblationAdaptive renders the policy comparison.
func (h *Harness) PrintAblationAdaptive(w io.Writer) []AdaptiveRow {
	return h.adaptive().printTo(h, w)
}

// StallRow compares non-stalling and stalling writes.
type StallRow struct {
	Loop        string
	NonStalling int64
	Stalling    int64
}

// writeStall runs the write-heavy loops under HW at their paper widths
// with non-stalling writes (Figure 11's cells) and with stalling ones.
func (h *Harness) writeStall() table[[]StallRow] {
	names := []string{"Ocean", "Adm"}
	var cells []cell
	for _, name := range names {
		procs := loops.Procs(name)
		cells = append(cells, loopCell(name, run.HW, procs), cell{loop: name, mode: run.HW, procs: procs,
			set: func(c *run.Config) { c.StallWrites = true }})
	}
	return table[[]StallRow]{cells: cells, result: func(res []*run.Result) []StallRow {
		var rows []StallRow
		for i, name := range names {
			rows = append(rows, StallRow{Loop: name, NonStalling: res[2*i].Cycles, Stalling: res[2*i+1].Cycles})
		}
		return rows
	}, print: func(w io.Writer, rows []StallRow) {
		tw := tabulate(w, fmt.Sprintf("Ablation: write-miss stalling (§5.1; HW, scale %s)", h.Scale.Name), "loop\tnon-stalling (paper)\tstalling\tslowdown")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\n", r.Loop, r.NonStalling, r.Stalling,
				float64(r.Stalling)/float64(r.NonStalling))
		}
		tw.Flush()
		fmt.Fprint(w, "expected: stalling on write misses costs a large factor on write-heavy loops\n\n")
	}}
}

// AblationWriteStall quantifies the §5.1 design choice "processors do
// not stall on write misses" on the write-heavy loops.
func (h *Harness) AblationWriteStall() []StallRow { return h.writeStall().of(h) }

// PrintAblationWriteStall renders the write-stall comparison.
func (h *Harness) PrintAblationWriteStall(w io.Writer) []StallRow {
	return h.writeStall().printTo(h, w)
}

// OccRow is one point of the directory-occupancy sweep.
type OccRow struct {
	Label  string
	Occ    int64
	Cycles int64
}

// directoryOccupancy sweeps the home directory handler occupancy.
func (h *Harness) directoryOccupancy() table[[]OccRow] {
	mk := func() *run.Workload {
		return &run.Workload{
			Name:       "dirocc",
			Executions: 1,
			Iterations: func(int) int { return 512 },
			Arrays: []run.ArraySpec{
				{Name: "A", Elems: 8192, ElemSize: 4, Test: core.NonPriv},
			},
			Body: func(exec, iter int, c *run.Ctx) {
				c.Compute(40)
				for k := 0; k < 8; k++ {
					e := iter*16 + k
					c.Store(0, e%8192)
					c.Load(0, e%8192)
				}
			},
			HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 2},
		}
	}
	cases := []struct {
		label string
		mult  int64
	}{
		{"hardwired test logic (paper)", 1},
		{"protocol processor, 2x handler", 2},
		{"protocol processor, 4x handler", 4},
	}
	var cells []cell
	for _, tc := range cases {
		cells = append(cells, cell{build: mk, mode: run.HW, procs: 16,
			set: func(c *run.Config) { c.HomeOccMultiplier = tc.mult }})
	}
	return table[[]OccRow]{cells: cells, result: func(res []*run.Result) []OccRow {
		base := machine.DefaultLatencies().HomeOccLine
		rows := make([]OccRow, len(res))
		for i, r := range res {
			rows[i] = OccRow{Label: cases[i].label, Occ: base * cases[i].mult, Cycles: r.Cycles}
		}
		return rows
	}, print: func(w io.Writer, rows []OccRow) {
		tw := tabulate(w, "Ablation: directory handler occupancy (Figure 10-(c): hardwired vs protocol processor)", "directory implementation\tocc (cycles)\ttotal cycles")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\n", r.Label, r.Occ, r.Cycles)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: slower handlers increase queueing at the home nodes under contention\n\n")
	}}
}

// AblationDirectoryOccupancy models replacing the hardwired test logic of
// Figure 10-(c) with a programmable protocol processor: handlers occupy
// the directory longer, increasing queueing delay under contention.
func (h *Harness) AblationDirectoryOccupancy() []OccRow { return h.directoryOccupancy().of(h) }

// PrintAblationDirectoryOccupancy renders the occupancy sweep.
func (h *Harness) PrintAblationDirectoryOccupancy(w io.Writer) []OccRow {
	return h.directoryOccupancy().printTo(h, w)
}
