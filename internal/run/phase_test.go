package run

import (
	"testing"

	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/lrpd"
)

// phaseLoop is a loop over arrays large enough that every phase hands
// each of four processors far more than phaseBatch instructions: a fully
// backed-up array, a sparsely backed-up one written on every line, and a
// privatized live-out array. With dep set, the last iteration reads what
// the first wrote on another processor, so speculation fails.
func phaseLoop(dep bool) *Workload {
	const elems = 1 << 14
	return &Workload{
		Name:       "phases",
		Executions: 1,
		Iterations: func(int) int { return 256 },
		Arrays: []ArraySpec{
			{Name: "A", Elems: elems, ElemSize: 4, Test: core.NonPriv},
			{Name: "S", Elems: elems, ElemSize: 4, Test: core.NonPriv, SparseBackup: true},
			{Name: "P", Elems: elems / 4, ElemSize: 4, Test: core.Priv, RICO: true, LiveOut: true},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(10)
			if dep && iter == 255 {
				c.Load(0, 0)
			}
			c.Store(0, iter*16)
			c.Store(1, iter*64)
			c.Store(2, iter)
			c.Load(2, iter)
		},
	}
}

// Every request to a phase source gets at most phaseBatch instructions,
// in every phase: HW backup, restore and copy-out, and SW backup with the
// shadow zero-out, merge and restore. The phases are each far larger
// than one batch, so a source that hands out a whole phase at once fails.
func TestPhaseBatchesBounded(t *testing.T) {
	const procs = 4
	cases := []struct {
		name   string
		mode   Mode
		dep    bool
		phases int // phase runs per processor
	}{
		{"HW pass: backup, copy-out", HW, false, 2},
		{"HW fail: backup, restore", HW, true, 2},
		{"SW pass: backup and zero-out, merge", SW, false, 2},
		{"SW fail: backup and zero-out, merge, restore", SW, true, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSession(phaseLoop(tc.dep), cfgFor(tc.mode, procs))
			defer s.m.Release()
			var streams []int // instructions each phase handed a processor
			maxBatch := 0
			for p, src := range s.phaseSrc {
				n := 0
				s.phaseSrc[p] = func(pr *cpu.Proc) []cpu.Instr {
					b := src(pr)
					maxBatch = max(maxBatch, len(b))
					if n += len(b); len(b) == 0 {
						streams = append(streams, n)
						n = 0
					}
					return b
				}
			}
			res := &Result{Verdicts: map[string]lrpd.Verdict{}}
			s.runOne(0, res)
			if got := res.Failures > 0; got != tc.dep {
				t.Fatalf("failures = %d, want a failure: %v", res.Failures, tc.dep)
			}
			if len(streams) != tc.phases*procs {
				t.Fatalf("%d phase streams ended, want %d", len(streams), tc.phases*procs)
			}
			longest := 0
			for _, n := range streams {
				longest = max(longest, n)
			}
			if longest <= 2*phaseBatch {
				t.Fatalf("longest phase stream %d instructions: too short to test the bound %d", longest, phaseBatch)
			}
			if maxBatch > phaseBatch {
				t.Fatalf("a phase source handed out %d instructions at once, want at most %d", maxBatch, phaseBatch)
			}
		})
	}
}
