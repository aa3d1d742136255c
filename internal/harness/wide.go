package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/loops"
	"specrt/internal/run"
	"specrt/internal/sched"
	"specrt/internal/stats"
)

// Wide-scale ablation: the paper stops at 16 processors; the multi-word
// ProcSet and the coarse-vector directory exist to make 256-1024
// processor machines simulable. The ablation sweeps the processor
// ladder against both directory representations and both scalable
// topologies, measuring cycles and the network pressure the wider
// invalidation fan-out generates. Caches are scaled down (8 KB L1 /
// 64 KB L2) so a 1024-node machine's line metadata stays in memory;
// every cell uses the same sizes, so comparisons within the table stay
// apples-to-apples.

// WideProcs is the full processor ladder of the wide-scale ablation.
var WideProcs = []int{64, 256, 1024}

// WideProcsUpTo truncates the ladder to counts <= max; max <= 0 keeps
// the full ladder.
func WideProcsUpTo(max int) []int {
	if max <= 0 {
		return WideProcs
	}
	var out []int
	for _, p := range WideProcs {
		if p <= max {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}

// WideRow is one cell of the wide-scale ablation.
type WideRow struct {
	Workload string
	Procs    int
	Dir      directory.Mode
	Topology interconnect.Kind
	Cycles   int64
	// Invals counts invalidations the directory sent; in coarse mode
	// the set is a superset of the true sharers, so the surplus over
	// the full-map row is exactly the traffic the compression costs.
	Invals uint64
	Net    stats.NetReport
}

// wideWorkload builds the generated scaling loop: iteration i reads and
// updates its own element (so speculation passes at every width), and
// every iteration also reads a 64-line hot region shared machine-wide;
// sparse plain-protocol writes to the hot lines force invalidations
// whose fan-out covers every sharer — the path the multi-word ProcSet
// makes O(populated words) and the coarse vector turns into a superset
// broadcast.
func wideWorkload(procs int) *run.Workload {
	iters := 4 * procs
	return &run.Workload{
		Name:       fmt.Sprintf("wide-gen-%d", procs),
		Executions: 1,
		Iterations: func(int) int { return iters },
		Arrays: []run.ArraySpec{
			{Name: "A", Elems: iters, ElemSize: 16, Test: core.NonPriv},
			// 256 16-byte elements = 64 cache lines; indexing by
			// (iter%64)*4 touches each line at its first element.
			{Name: "HOT", Elems: 256, ElemSize: 16, Test: core.Plain},
		},
		Body: func(exec, iter int, c *run.Ctx) {
			hot := (iter % 64) * 4
			c.Load(1, hot)
			if iter%61 == 0 {
				c.Store(1, hot)
			}
			c.Load(0, iter)
			c.Compute(25)
			c.Store(0, iter)
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 4},
	}
}

// wideWorkloads lists the ablation's workloads in presentation order:
// the paper's Ocean loop (one execution) and the generated scaling loop.
var wideWorkloads = []string{"Ocean", "gen"}

// WideCell simulates one cell of the ablation: an HW run of the named
// workload at the given width, directory mode and topology, with the
// ablation's scaled-down caches.
func (h *Harness) WideCell(workload string, procs int, dir directory.Mode, topo interconnect.Kind) WideRow {
	var w *run.Workload
	switch workload {
	case "Ocean":
		w = loops.Ocean()
	case "gen":
		w = wideWorkload(procs)
	default:
		panic("harness: unknown wide workload " + workload)
	}
	r := run.MustExecute(w, run.Config{
		Procs: procs, Mode: run.HW, Contention: true,
		Topology: topo, Placement: h.Placement,
		DirMode:       dir,
		L1Bytes:       8 << 10,
		L2Bytes:       64 << 10,
		MaxExecutions: 1,
		NoFastPath:    h.NoFastPath,
	})
	return WideRow{
		Workload: workload, Procs: procs, Dir: dir, Topology: topo,
		Cycles: r.Cycles, Invals: r.MachineStats.Invalidations,
		Net: stats.Network(r),
	}
}

// AblationWide sweeps procs x {full-map, coarse} x {mesh, crossbar}
// over the wide workloads. An empty procsList selects the full ladder.
// Cells fan out over the worker pool; rows assemble in ladder order.
func (h *Harness) AblationWide(procsList []int) []WideRow {
	if len(procsList) == 0 {
		procsList = WideProcs
	}
	type cellSpec struct {
		workload string
		procs    int
		dir      directory.Mode
		topo     interconnect.Kind
	}
	var specs []cellSpec
	for _, procs := range procsList {
		for _, workload := range wideWorkloads {
			for _, dir := range []directory.Mode{directory.FullMap, directory.Coarse} {
				for _, topo := range []interconnect.Kind{interconnect.Mesh, interconnect.Crossbar} {
					specs = append(specs, cellSpec{workload, procs, dir, topo})
				}
			}
		}
	}
	rows := make([]WideRow, len(specs))
	h.parallelMap(len(specs), func(i int) {
		s := specs[i]
		rows[i] = h.WideCell(s.workload, s.procs, s.dir, s.topo)
	})
	return rows
}

// PrintAblationWide renders the scaling table.
func (h *Harness) PrintAblationWide(w io.Writer, procsList []int) []WideRow {
	rows := h.AblationWide(procsList)
	fmt.Fprintln(w, "Ablation: wide-scale directory scaling (HW, 8KB L1 / 64KB L2)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tprocs\tdirectory\ttopology\tcycles\tinvals\tmessages\tlink wait\tmax home q")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%d\t%d\t%d\t%.1f\t%d\n",
			r.Workload, r.Procs, r.Dir, r.Topology, r.Cycles, r.Invals,
			r.Net.Messages, r.Net.LinkWaitMean, r.Net.MaxHomeQueue)
	}
	tw.Flush()
	fmt.Fprintln(w, "expected: once sharer sets outgrow the pointer slots, coarse invalidates a superset (more invals at the same cycles shape); the mesh's hop distance grows with the ladder while the crossbar pays only port contention")
	fmt.Fprintln(w)
	return rows
}

// WideResult wraps the rows for CSV emission.
type WideResult struct{ Rows []WideRow }

// WriteCSV emits the ablation as
// workload,procs,directory,topology,cycles,messages,link_wait_mean,max_home_queue rows.
func (r WideResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, fmt.Sprint(row.Procs), row.Dir.String(),
			row.Topology.String(), d(row.Cycles), fmt.Sprint(row.Invals),
			fmt.Sprint(row.Net.Messages), f(row.Net.LinkWaitMean),
			fmt.Sprint(row.Net.MaxHomeQueue),
		})
	}
	return writeCSV(w, []string{"workload", "procs", "directory", "topology",
		"cycles", "invals", "messages", "link_wait_mean", "max_home_queue"}, rows)
}
