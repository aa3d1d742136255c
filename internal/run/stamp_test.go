package run_test

import (
	"testing"

	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/loops"
	"specrt/internal/run"
	"specrt/internal/trace"
)

// Every load and store a HW session emits, in every phase, carries the
// translation the controller's translation table gives its address: the
// slot of the array under test it falls in (core.FirstSlot plus the
// array's registration index) and its element there, or core.NoArray.
// An unstamped access would be translated by the controller, but every
// element here fits a stamp, so the test wants none. Each workload must
// make stamped accesses to arrays under test while the controller is
// armed, or the check proves nothing.
func TestStampsMatchTranslation(t *testing.T) {
	sparse := loops.Ocean()
	for i := range sparse.Arrays {
		if sparse.Arrays[i].Test == core.NonPriv {
			sparse.Arrays[i].SparseBackup = true
		}
	}
	sparse.Name += "-sparse"
	tr, err := trace.Build(&trace.File{
		Arrays: []trace.ArrayDesc{
			{Name: "P", Elems: 64, ElemSize: 8},
			{Name: "A", Elems: 256, ElemSize: 4, Test: "nonpriv"},
			{Name: "V", Elems: 32, ElemSize: 16, Test: "priv-rico", LiveOut: true},
		},
		Iterations: traceIters(64),
		Sched:      &trace.SchedDesc{Kind: "dynamic", Chunk: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		w   *run.Workload
		max int // MaxExecutions: the quick scale's cap
		set func(*run.Config)
	}
	cases := []tcase{
		{w: loops.Ocean(), max: 3},
		{w: loops.P3m(600)},
		{w: loops.Adm(), max: 4},
		{w: loops.Track(), max: 10},
		{w: loops.Adm(), max: 2, set: func(c *run.Config) { c.LineGrainBits = true }},
		{w: loops.P3m(600), set: func(c *run.Config) { c.EpochIters = 32 }},
		{w: sparse, max: 2},
		{w: tr},
	}
	for _, w := range loops.ForcedFails(600) {
		cases = append(cases, tcase{w: w, max: 2})
	}
	for _, tc := range cases {
		cfg := run.Config{Procs: 16, Mode: run.HW, Contention: true, MaxExecutions: tc.max}
		if tc.set != nil {
			tc.set(&cfg)
		}
		armed, bad, unstamped := 0, 0, 0
		_, err := run.ExecuteObserved(tc.w, cfg, func(ctl *core.Controller, batch []cpu.Instr) {
			for _, in := range batch {
				if in.Kind != cpu.KLoad && in.Kind != cpu.KStore {
					continue
				}
				if in.Slot == core.Unstamped {
					// Allowed, but a stamp these emitters left off.
					unstamped++
					continue
				}
				slot, elem := translate(ctl, in)
				if in.Slot == slot && (slot == core.NoArray || int(in.ID) == elem) {
					if ctl.Armed() && slot != core.NoArray {
						armed++
					}
					continue
				}
				if bad++; bad <= 3 {
					t.Errorf("%s: %v of %#x stamped slot %d elem %d, translation table gives slot %d elem %d",
						tc.w.Name, in.Kind, in.Addr(), in.Slot, in.ID, slot, elem)
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.w.Name, err)
		}
		if unstamped > 0 {
			t.Errorf("%s: %d unstamped accesses, want every element stamped", tc.w.Name, unstamped)
		}
		t.Logf("%s: %d stamped accesses to arrays under test while armed", tc.w.Name, armed)
		if armed == 0 {
			t.Errorf("%s: no stamped access to an array under test while armed", tc.w.Name)
		}
	}
}

// translate classifies in's address as the translation table does: the
// slot of the first registered array whose shared region holds it, and
// the element there.
func translate(ctl *core.Controller, in cpu.Instr) (slot uint8, elem int) {
	for i, a := range ctl.Arrays() {
		if a.Region.Contains(in.Addr()) {
			return core.FirstSlot + uint8(i), a.Region.ElemIndex(in.Addr())
		}
	}
	return core.NoArray, 0
}

// traceIters is n iterations over the trace's three arrays: a plain
// read, a non-privatized write of the iteration's own element and a read
// of its neighbour's line, and a privatized write-then-read.
func traceIters(n int) [][]trace.OpDesc {
	its := make([][]trace.OpDesc, n)
	for i := range its {
		its[i] = []trace.OpDesc{
			{Op: "load", Array: 0, Elem: i % 64},
			{Op: "compute", Cycles: 20},
			{Op: "store", Array: 1, Elem: 4 * i},
			{Op: "load", Array: 1, Elem: 4*i + 1},
			{Op: "store", Array: 2, Elem: i % 32},
			{Op: "load", Array: 2, Elem: i % 32},
		}
	}
	return its
}
