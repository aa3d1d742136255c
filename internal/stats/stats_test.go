package stats

import (
	"math"
	"strings"
	"testing"

	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/interconnect"
	"specrt/internal/run"
)

func res(cycles int64, b cpu.Breakdown, procs int) *run.Result {
	return &run.Result{Cycles: cycles, Breakdown: b, Procs: procs}
}

func TestNormalizeSerialIsOne(t *testing.T) {
	serial := res(1000, cpu.Breakdown{Busy: 600, Mem: 400}, 1)
	n := Normalize(serial, serial)
	if math.Abs(n.Total()-1.0) > 1e-9 {
		t.Fatalf("serial normalized total = %f", n.Total())
	}
	if math.Abs(n.Busy-0.6) > 1e-9 || math.Abs(n.Mem-0.4) > 1e-9 {
		t.Fatalf("segments = %+v", n)
	}
}

func TestNormalizeScalesToWall(t *testing.T) {
	serial := res(1000, cpu.Breakdown{Busy: 1000}, 1)
	par := res(250, cpu.Breakdown{Busy: 100, Mem: 100, Sync: 50}, 4)
	n := Normalize(par, serial)
	if math.Abs(n.Total()-0.25) > 1e-9 {
		t.Fatalf("total = %f, want 0.25", n.Total())
	}
	// Segments keep their proportions.
	if math.Abs(n.Busy-0.1) > 1e-9 || math.Abs(n.Mem-0.1) > 1e-9 || math.Abs(n.Sync-0.05) > 1e-9 {
		t.Fatalf("segments = %+v", n)
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	serial := res(0, cpu.Breakdown{}, 1)
	if n := Normalize(res(10, cpu.Breakdown{}, 1), serial); n.Total() != 0 {
		t.Fatalf("zero serial should normalize to zero, got %+v", n)
	}
	serial = res(100, cpu.Breakdown{Busy: 100}, 1)
	n := Normalize(res(50, cpu.Breakdown{}, 1), serial)
	if math.Abs(n.Total()-0.5) > 1e-9 {
		t.Fatalf("empty breakdown should fall back to wall time: %+v", n)
	}
}

func TestNormBreakdownString(t *testing.T) {
	n := NormBreakdown{Busy: 0.5, Mem: 0.25, Sync: 0.25}
	s := n.String()
	if !strings.Contains(s, "1.00") || !strings.Contains(s, "busy 0.50") {
		t.Fatalf("String = %q", s)
	}
}

func TestEfficiency(t *testing.T) {
	serial := res(1600, cpu.Breakdown{}, 1)
	par := res(200, cpu.Breakdown{}, 16)
	if e := Efficiency(serial, par); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("efficiency = %f, want 0.5", e)
	}
	if e := Efficiency(serial, res(100, cpu.Breakdown{}, 0)); e != 0 {
		t.Fatalf("zero-proc efficiency = %f", e)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-9 {
		t.Fatalf("mean = %f", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean(nil) = %f", m)
	}
}

// TestNetworkWideMachine is the 128-processor regression test for the
// queueing reports: every counter that involves a node index must come
// from proc-count-sized state, so a machine past the one-word sharer
// spill point reports sane home/link figures (this would crash or
// truncate if anything still assumed 64 processors).
func TestNetworkWideMachine(t *testing.T) {
	const procs = 128
	w := &run.Workload{
		Name:       "wide-net",
		Executions: 1,
		Iterations: func(int) int { return 4 * procs },
		Arrays: []run.ArraySpec{
			{Name: "A", Elems: 4 * procs, ElemSize: 4, Test: core.NonPriv},
		},
		Body: func(_, iter int, c *run.Ctx) {
			c.Load(0, iter)
			c.Store(0, iter)
			c.Compute(10)
		},
	}
	r := run.MustExecute(w, run.Config{
		Procs:      procs,
		Mode:       run.HW,
		Contention: true,
		Topology:   interconnect.Mesh,
		L1Bytes:    8 * 1024,
		L2Bytes:    64 * 1024,
	})
	if r.Procs != procs || r.Cycles <= 0 {
		t.Fatalf("wide run: procs=%d cycles=%d", r.Procs, r.Cycles)
	}
	n := Network(r)
	if n.Messages == 0 {
		t.Fatal("mesh run routed no messages")
	}
	if r.HomeQueue.MaxQueueHome < 0 || r.HomeQueue.MaxQueueHome >= procs {
		t.Fatalf("MaxQueueHome %d outside [0,%d)", r.HomeQueue.MaxQueueHome, procs)
	}
	if n.MaxHomeQueue < 1 || n.MaxLinkQueue < 1 {
		t.Fatalf("queue depths never tracked: %+v", n)
	}
	if n.LinkBusyFrac <= 0 || n.LinkWaitMean < 0 || n.HomeStallFrac < 0 || n.HomeStallFrac > 1 {
		t.Fatalf("derived fractions out of range: %+v", n)
	}
}
