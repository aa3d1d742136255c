// Package stats post-processes simulation results into the quantities
// the paper plots: speedups, efficiencies, and execution-time breakdowns
// normalized to the serial execution (Figures 11-14).
package stats

import (
	"fmt"

	"specrt/internal/run"
)

// NormBreakdown is an execution-time bar normalized to a serial baseline:
// the segment heights sum to the normalized total time.
type NormBreakdown struct {
	Busy, Mem, Sync float64
}

// Total returns the bar height (normalized execution time).
func (n NormBreakdown) Total() float64 { return n.Busy + n.Mem + n.Sync }

func (n NormBreakdown) String() string {
	return fmt.Sprintf("%.2f (busy %.2f, mem %.2f, sync %.2f)",
		n.Total(), n.Busy, n.Mem, n.Sync)
}

// Normalize scales a breakdown so that its segments are fractions of the
// serial execution time, then rescales them so they sum to the measured
// normalized wall time (the paper's bars are wall-time bars split by the
// average processor's time categories).
func Normalize(r *run.Result, serial *run.Result) NormBreakdown {
	if serial.Cycles == 0 {
		return NormBreakdown{}
	}
	wall := float64(r.Cycles) / float64(serial.Cycles)
	b := r.Breakdown
	tot := float64(b.Total())
	if tot == 0 {
		return NormBreakdown{Busy: wall}
	}
	scale := wall / tot
	return NormBreakdown{
		Busy: float64(b.Busy) * scale,
		Mem:  float64(b.Mem) * scale,
		Sync: float64(b.Sync) * scale,
	}
}

// Efficiency returns speedup divided by processor count.
func Efficiency(serial, parallel *run.Result) float64 {
	if parallel.Procs == 0 {
		return 0
	}
	return run.Speedup(serial, parallel) / float64(parallel.Procs)
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// NetReport condenses a run's interconnect and home-directory queueing
// into the quantities the harness reports: how busy the links were, how
// long messages queued for them, the deepest home-directory queue, and
// how often transactions serialized behind a busy home.
type NetReport struct {
	// Messages routed over network links (0 on the ideal topology).
	Messages uint64
	// LinkBusyFrac is total link-busy cycles divided by the run's cycle
	// count: the aggregate link occupancy (can exceed 1 with many links).
	LinkBusyFrac float64
	// LinkWaitMean is the cycles a routed message spent queued for
	// links, on average.
	LinkWaitMean float64
	// MaxLinkQueue is the deepest per-link queue observed (1 = links
	// always idle at arrival).
	MaxLinkQueue int
	// MaxHomeQueue is the deepest home-directory queue observed.
	MaxHomeQueue int
	// HomeStalls counts home transactions that serialized behind earlier
	// work; HomeStallFrac divides by the home request count.
	HomeStalls    uint64
	HomeStallFrac float64
}

// Network derives the report from a run result.
func Network(r *run.Result) NetReport {
	n := NetReport{
		Messages:     r.NetStats.Messages,
		MaxLinkQueue: r.NetStats.MaxLinkQueue,
		MaxHomeQueue: r.HomeQueue.MaxQueueDepth,
		HomeStalls:   r.HomeQueue.Stalls,
	}
	if r.Cycles > 0 {
		n.LinkBusyFrac = float64(r.NetStats.LinkBusy) / float64(r.Cycles)
	}
	if r.NetStats.Messages > 0 {
		n.LinkWaitMean = float64(r.NetStats.LinkWait) / float64(r.NetStats.Messages)
	}
	if r.HomeQueue.Requests > 0 {
		n.HomeStallFrac = float64(r.HomeQueue.Stalls) / float64(r.HomeQueue.Requests)
	}
	return n
}
