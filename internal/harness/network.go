package harness

import (
	"fmt"
	"io"

	"specrt/internal/core"
	"specrt/internal/interconnect"
	"specrt/internal/mem"
	"specrt/internal/run"
	"specrt/internal/sched"
	"specrt/internal/stats"
)

// Network-contention ablation: the paper's flat hop cost hides where
// speculative-access traffic actually lands. Routing the deferred
// protocol messages over the 2D mesh with queued links exposes the
// difference between the two schemes: the non-privatization scheme's bit
// updates mostly ride the synchronous line fills, while the
// privatization scheme signals every first read and first write to the
// element's home directory and copies live-out lines back after the
// loop.

// MeshRow is one cell of the mesh-contention ablation.
type MeshRow struct {
	Loop      string // "nonpriv" or "priv"
	Placement mem.Placement
	Cycles    int64
	Net       stats.NetReport
}

// meshWorkload builds the synthetic loop for the ablation: iteration i
// reads and updates element i. The array spans 16 pages so round-robin
// placement really spreads homes across a 16-node machine, and the chunk
// size keeps lines single-writer so the comparison measures directory
// traffic rather than false-sharing copy-out.
func meshWorkload(test core.Protocol) *run.Workload {
	name := "nonpriv"
	if test == core.Priv {
		name = "priv"
	}
	spec := run.ArraySpec{Name: "A", Elems: 4096, ElemSize: 16, Test: test}
	if test == core.Priv {
		spec.RICO = true
		spec.LiveOut = true
	}
	return &run.Workload{
		Name:       "mesh-" + name,
		Executions: 1,
		Iterations: func(int) int { return 4096 },
		Arrays:     []run.ArraySpec{spec},
		Body: func(exec, iter int, c *run.Ctx) {
			c.Load(0, iter)
			c.Compute(40)
			c.Store(0, iter)
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 64},
	}
}

// meshContention runs both loops under HW on the 2D mesh at each
// placement; the cells sweep Topology and Placement.
func (h *Harness) meshContention() table[[]MeshRow] {
	places := []mem.Placement{mem.RoundRobin, mem.Local}
	var cells []cell
	for _, test := range []core.Protocol{core.NonPriv, core.Priv} {
		for _, place := range places {
			cells = append(cells, cell{build: func() *run.Workload { return meshWorkload(test) }, mode: run.HW, procs: 16,
				set: func(c *run.Config) { c.Topology, c.Placement = interconnect.Mesh, place }})
		}
	}
	return table[[]MeshRow]{cells: cells, result: eachRow(func(i int, r *run.Result) MeshRow {
		return MeshRow{Loop: r.Workload[len("mesh-"):], Placement: places[i%len(places)],
			Cycles: r.Cycles, Net: stats.Network(r)}
	}), print: func(w io.Writer, rows []MeshRow) {
		tw := tabulate(w, "Ablation: mesh contention, non-priv vs priv traffic (HW, 16 procs, 2D mesh)", "loop\tplacement\tcycles\tmessages\tlink wait\tmax link q\tmax home q\thome stall frac")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\t%d\t%d\t%.3f\n",
				r.Loop, r.Placement, r.Cycles, r.Net.Messages, r.Net.LinkWaitMean,
				r.Net.MaxLinkQueue, r.Net.MaxHomeQueue, r.Net.HomeStallFrac)
		}
		tw.Flush()
		fmt.Fprint(w, "expected: non-priv bit updates ride the line fills; priv signal and copy-out traffic queues at the homes, collapsing under single-home placement\n\n")
	}}
}

// AblationMeshContention runs the non-privatization and privatization
// loops under HW on the 2D mesh, with pages interleaved across nodes and
// with every page homed on node 0 (the hotspot a naive allocator
// produces). Rows carry the network report so the collapse is visible in
// link queueing and home-directory depth, not just cycles.
func (h *Harness) AblationMeshContention() []MeshRow { return h.meshContention().of(h) }

// PrintAblationMeshContention renders the mesh comparison.
func (h *Harness) PrintAblationMeshContention(w io.Writer) []MeshRow {
	return h.meshContention().printTo(h, w)
}

// MeshResult wraps the rows for CSV emission.
type MeshResult struct{ Rows []MeshRow }

// WriteCSV emits the ablation as
// loop,placement,cycles,messages,link_wait_mean,max_link_queue,max_home_queue,home_stall_frac rows.
func (r MeshResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Loop, row.Placement.String(), d(row.Cycles),
			fmt.Sprint(row.Net.Messages), f(row.Net.LinkWaitMean),
			fmt.Sprint(row.Net.MaxLinkQueue), fmt.Sprint(row.Net.MaxHomeQueue),
			f(row.Net.HomeStallFrac),
		})
	}
	return writeCSV(w, []string{"loop", "placement", "cycles", "messages",
		"link_wait_mean", "max_link_queue", "max_home_queue", "home_stall_frac"}, rows)
}
