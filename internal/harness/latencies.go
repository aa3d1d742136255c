package harness

import (
	"fmt"
	"io"

	"specrt/internal/machine"
	"specrt/internal/mem"
)

// LatencyRow pairs a configured §5.1 latency with the value measured on
// an unloaded machine probe.
type LatencyRow struct {
	Name       string
	Paper      int64
	Configured int64
	Measured   int64
}

// MeasureLatencies probes an unloaded 4-node machine and returns the
// §5.1 round-trip table.
func MeasureLatencies() []LatencyRow {
	cfg := machine.DefaultConfig(4)
	cfg.Contention = false
	m := machine.MustNew(cfg)
	defer m.Release() // hand the caches' frames back to their pool
	local := m.Space.Alloc("local", 1024, 4, mem.Local, 0)
	remote := m.Space.Alloc("remote", 1024, 4, mem.Local, 1)
	third := m.Space.Alloc("third", 1024, 4, mem.Local, 2)

	localMiss := m.Read(0, local.ElemAddr(0))
	l1Hit := m.Read(0, local.ElemAddr(1))
	remoteMiss := m.Read(0, remote.ElemAddr(0))
	m.Write(1, third.ElemAddr(0))
	threeHop := m.Read(0, third.ElemAddr(0))
	// L2 hit: evict from L1 only via an L1-conflicting line.
	a := local.ElemAddr(0)
	m.Read(0, a+mem.Addr(cfg.L1.SizeBytes))
	l2Hit := m.Read(0, a)

	lat := cfg.Lat
	return []LatencyRow{
		{"primary cache", 1, lat.L1Hit, l1Hit},
		{"secondary cache", 12, lat.L2Hit, l2Hit},
		{"local memory", 60, lat.LocalMem, localMiss},
		{"remote 2-hop", 208, lat.Remote2Hop, remoteMiss},
		{"remote 3-hop", 291, lat.Remote3Hop, threeHop},
	}
}

// PrintLatencies renders the §5.1 latency table with measured probes.
func PrintLatencies(w io.Writer) []LatencyRow {
	rows := MeasureLatencies()
	tw := tabulate(w, "Table (§5.1): unloaded round-trip latencies in cycles", "level\tpaper\tconfigured\tmeasured")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Name, r.Paper, r.Configured, r.Measured)
	}
	tw.Flush()
	fmt.Fprintln(w)
	return rows
}
