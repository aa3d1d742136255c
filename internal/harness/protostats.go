package harness

import (
	"fmt"
	"io"

	"specrt/internal/loops"
	"specrt/internal/run"
)

// ProtoStatsRow summarizes the protocol activity of one loop under the
// hardware scheme: how much extra traffic the speculation extensions add
// (§3.2 aims to "minimize the increase in traffic").
type ProtoStatsRow struct {
	Loop  string
	Procs int

	Reads, Writes  uint64
	L1HitRate      float64
	Fetches        uint64 // 2-hop + 3-hop line fills
	Invalidations  uint64
	Writebacks     uint64
	SpecMessages   uint64 // deferred bit-update messages
	FirstUpdates   uint64
	ROnlyUpdates   uint64
	Bounces        uint64
	ReadFirsts     uint64
	FirstWrites    uint64
	ReadIns        uint64
	MsgsPerKAccess float64 // speculation messages per 1000 accesses
}

// ProtoStats runs each paper loop under HW and collects protocol counts.
func (h *Harness) ProtoStats() []ProtoStatsRow {
	var rows []ProtoStatsRow
	for _, name := range LoopNames {
		procs := loops.Procs(name)
		r := h.Result(name, run.HW, procs)
		m, c := r.MachineStats, r.CoreStats
		// Plain accesses are counted by the machine; speculative ones by
		// the controller.
		reads := m.Reads + c.NonPrivReads + c.PrivReads
		writes := m.Writes + c.NonPrivWrites + c.PrivWrites
		accesses := reads + writes
		hits := float64(m.L1Hits) / float64(max(accesses, 1))
		row := ProtoStatsRow{
			Loop:          name,
			Procs:         procs,
			Reads:         reads,
			Writes:        writes,
			L1HitRate:     hits,
			Fetches:       m.Fetch2Hop + m.Fetch3Hop,
			Invalidations: m.Invalidations,
			Writebacks:    m.Writebacks,
			SpecMessages:  m.Messages,
			FirstUpdates:  c.FirstUpdates,
			ROnlyUpdates:  c.ROnlyUpdates,
			Bounces:       c.FirstUpdateFails,
			ReadFirsts:    c.ReadFirstSignals,
			FirstWrites:   c.FirstWriteSignals,
			ReadIns:       c.ReadIns,
		}
		if accesses > 0 {
			row.MsgsPerKAccess = float64(m.Messages) * 1000 / float64(accesses)
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintProtoStats renders the protocol-activity table.
func (h *Harness) PrintProtoStats(w io.Writer) []ProtoStatsRow {
	rows := h.ProtoStats()
	tw := tabulate(w, fmt.Sprintf("Protocol activity under the HW scheme (scale %s)", h.Scale.Name), "loop\taccesses\tL1 hit\tfills\tinval\twbacks\tspec msgs\tmsgs/1k acc\tFupd\tROupd\tbounce\tR1st\tW1st\treadin")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Loop, r.Reads+r.Writes, r.L1HitRate, r.Fetches, r.Invalidations,
			r.Writebacks, r.SpecMessages, r.MsgsPerKAccess,
			r.FirstUpdates, r.ROnlyUpdates, r.Bounces, r.ReadFirsts, r.FirstWrites, r.ReadIns)
	}
	tw.Flush()
	fmt.Fprint(w, "the extensions are designed to minimize the increase in traffic (§3.2)\n\n")
	return rows
}
