package check

import (
	"fmt"
	"reflect"
	"testing"

	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// The execution fast path (internal/cpu) promises byte-identical results
// with per-instruction stepping. These tests replay protocol access
// streams — the fuzzer's generated streams and a fixed matrix of the
// §3.2 race archetypes — through a full processor system twice, batched
// and stepped, and require every observable outcome to match exactly.

// cpuOutcome fingerprints everything observable from executing a stream
// through the processor layer. Engine event counts are deliberately
// absent: the fast path exists to run fewer events.
type cpuOutcome struct {
	Elapsed   sim.Time
	Now       sim.Time
	Breakdown []cpu.Breakdown
	Instrs    [][8]uint64
	Machine   machine.Stats
	Core      core.Stats
	Aborted   bool
	Failure   string
}

// execStream runs the stream's per-processor subsequences (each
// processor's program order preserved, interleaving decided by the
// simulated timing) on a fresh machine with the stream's protocol armed.
func execStream(t *testing.T, s *Stream, fastPath bool) cpuOutcome {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid stream: %v", err)
	}
	cfg := machine.DefaultConfig(s.Procs)
	cfg.Contention = false
	m := machine.MustNew(cfg)
	c := core.NewController(m)
	r := m.Space.Alloc("A", s.Elems, s.ElemSize, mem.RoundRobin, 0)
	if s.Priv {
		c.AddPriv(r, s.RICO)
	} else {
		c.AddNonPriv(r)
	}
	c.Arm()

	sys := cpu.NewSystem(m, c)
	sys.FastPath = fastPath

	perProc := make([][]cpu.Instr, s.Procs)
	curIter := make([]int, s.Procs)
	for _, a := range s.Accesses {
		p := a.Proc
		if s.Priv && curIter[p] != a.Iter {
			curIter[p] = a.Iter
			perProc[p] = append(perProc[p], cpu.BeginIter(a.Iter))
		}
		if a.Write {
			perProc[p] = append(perProc[p], cpu.Store(r.ElemAddr(a.Elem)))
		} else {
			perProc[p] = append(perProc[p], cpu.Load(r.ElemAddr(a.Elem)))
		}
		// A little compute between accesses gives the batcher fusable
		// runs, so the fast path genuinely engages on clean streams.
		perProc[p] = append(perProc[p], cpu.Compute(3))
	}
	ids := make([]int, s.Procs)
	srcs := make([]cpu.Source, s.Procs)
	for p := 0; p < s.Procs; p++ {
		ids[p] = p
		srcs[p] = cpu.SliceSource(perProc[p])
	}
	elapsed := sys.Run(ids, srcs)

	out := cpuOutcome{
		Elapsed: elapsed,
		Now:     m.Eng.Now(),
		Machine: m.Stats,
		Core:    c.Stats,
	}
	if f, aborted := sys.Aborted(); aborted {
		out.Aborted = true
		if f != nil {
			out.Failure = f.Error()
		}
	}
	for _, p := range sys.Procs {
		out.Breakdown = append(out.Breakdown, p.B)
		out.Instrs = append(out.Instrs, p.Instrs)
	}
	return out
}

// diffStream asserts batched and stepped execution of s are identical.
func diffStream(t *testing.T, name string, s *Stream) {
	t.Helper()
	fast := execStream(t, s, true)
	slow := execStream(t, s, false)
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("%s: batched and stepped outcomes differ\nbatched: %+v\nstepped: %+v", name, fast, slow)
	}
}

// TestFastPathFuzzStreamsDifferential replays generated fuzz streams —
// the same generator the protocol fuzzer draws from, across all three
// conflict-phase shapes — batched vs stepped.
func TestFastPathFuzzStreamsDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		s := Generate(seed, Scales[0])
		diffStream(t, fmt.Sprintf("generated/seed=%d", seed), s)
	}
	for phase := 1; phase <= 3; phase++ {
		for seed := uint64(100); seed < 104; seed++ {
			s := Generate(seed, Scale{MaxProcs: 4, MaxElems: 32, MaxSteps: 48, Phase: phase})
			diffStream(t, fmt.Sprintf("phase%d/seed=%d", phase, seed), s)
		}
	}
}

// TestFastPathRaceMatrixDifferential replays the §3.2 race archetypes
// (the same shapes races_test.go drives through the controller) through
// full processor systems, batched vs stepped. Racy shapes abort; the
// differential requires the abort to land at the same simulated time
// with the same failure either way — including when it lands inside
// what would have been a fused run.
func TestFastPathRaceMatrixDifferential(t *testing.T) {
	np := func(acc ...Access) *Stream {
		return &Stream{Procs: 2, Elems: 32, ElemSize: 4, Accesses: acc}
	}
	pv := func(acc ...Access) *Stream {
		return &Stream{Procs: 2, Elems: 32, ElemSize: 4, Priv: true, Accesses: acc}
	}
	cases := []struct {
		name  string
		abort bool
		s     *Stream
	}{
		{"concurrent-first-reads", false, np(
			Access{Proc: 0, Elem: 5}, Access{Proc: 1, Elem: 5},
			Access{Proc: 0, Elem: 5}, Access{Proc: 1, Elem: 5},
		)},
		{"read-only-sharing", false, np(
			Access{Proc: 0, Elem: 1}, Access{Proc: 1, Elem: 1},
			Access{Proc: 0, Elem: 2}, Access{Proc: 1, Elem: 2},
			Access{Proc: 1, Elem: 1}, Access{Proc: 0, Elem: 2},
		)},
		{"first-update-vs-write", true, np(
			Access{Proc: 0, Elem: 7},
			Access{Proc: 1, Elem: 7, Write: true},
			Access{Proc: 0, Elem: 7},
		)},
		{"ronly-vs-write", true, np(
			Access{Proc: 0, Elem: 3}, Access{Proc: 1, Elem: 3},
			Access{Proc: 1, Elem: 3, Write: true},
		)},
		{"disjoint-writes", false, np(
			Access{Proc: 0, Elem: 0, Write: true}, Access{Proc: 1, Elem: 16, Write: true},
			Access{Proc: 0, Elem: 1, Write: true}, Access{Proc: 1, Elem: 17, Write: true},
			Access{Proc: 0, Elem: 0}, Access{Proc: 1, Elem: 16},
		)},
		{"priv-write-then-read", false, pv(
			Access{Proc: 0, Iter: 1, Elem: 4, Write: true}, Access{Proc: 0, Iter: 1, Elem: 4},
			Access{Proc: 1, Iter: 2, Elem: 4, Write: true}, Access{Proc: 1, Iter: 2, Elem: 4},
		)},
		{"priv-cross-iter-war", true, pv(
			Access{Proc: 0, Iter: 1, Elem: 9},
			Access{Proc: 1, Iter: 2, Elem: 9, Write: true},
			Access{Proc: 0, Iter: 1, Elem: 9},
		)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := execStream(t, tc.s, true)
			if out.Aborted != tc.abort {
				t.Fatalf("%s: aborted=%v, want %v (failure=%q)", tc.name, out.Aborted, tc.abort, out.Failure)
			}
			diffStream(t, tc.name, tc.s)
		})
	}
}
