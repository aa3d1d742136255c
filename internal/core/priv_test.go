package core

import (
	"testing"

	"specrt/internal/mem"
)

// privEnv arms a controller with one privatized array of 64 4-byte
// elements.
func privEnv(t *testing.T, procs int, rico bool) (*env, mem.Region, *Array) {
	t.Helper()
	e := newEnv(t, procs)
	r := e.alloc("A", 64, 4)
	arr := e.c.AddPriv(r, PrivCopies(e.m.Space, r, procs), rico)
	e.c.Arm()
	return e, r, arr
}

func TestPrivAllocatesLocalCopies(t *testing.T) {
	e, _, arr := privEnv(t, 4, true)
	if len(arr.Priv) != 4 {
		t.Fatalf("private copies = %d, want 4", len(arr.Priv))
	}
	for p, pr := range arr.Priv {
		if n := e.m.Space.HomeNode(pr.Base); n != p {
			t.Fatalf("private copy %d homed at node %d", p, n)
		}
	}
}

func TestPrivWriteThenReadSameIterPasses(t *testing.T) {
	e, r, _ := privEnv(t, 2, true)
	// Classic privatizable pattern: each iteration writes then reads the
	// same temporary element.
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 3)
	e.read(t, 0, r, 3)
	e.c.BeginIteration(1, 2)
	e.write(t, 1, r, 3)
	e.read(t, 1, r, 3)
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("privatizable pattern failed: %v", f)
	}
}

func TestPrivReadOnlyPasses(t *testing.T) {
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.read(t, 0, r, 5)
	e.c.BeginIteration(1, 2)
	e.read(t, 1, r, 5)
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("read-only element failed: %v", f)
	}
	if e.c.Stats.ReadIns == 0 {
		t.Fatal("reads of untouched private lines should read in")
	}
}

func TestPrivFlowDependenceFails(t *testing.T) {
	// Iteration 1 writes the element, iteration 2 reads it first: serial
	// execution would forward the value, so the doall must fail.
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 7)
	e.c.BeginIteration(1, 2)
	err := e.read(t, 1, r, 7)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("flow dependence not detected")
	}
	if f := e.failed(); f != nil && f.Reason != FailReadFirstTooLate {
		t.Fatalf("reason = %q", f.Reason)
	}
}

func TestPrivReversedArrivalOrderFails(t *testing.T) {
	// The read-first (iteration 5) reaches the directory before the
	// write (iteration 3): the first-write signal sees Curr_Iter <
	// MaxR1st (Figure 9-(i)).
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 5)
	e.read(t, 0, r, 7)
	e.settle() // read-first lands: MaxR1st = 5
	e.c.BeginIteration(1, 3)
	err := e.write(t, 1, r, 7)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("write before earlier read-first not detected")
	}
	if f := e.failed(); f != nil && f.Reason != FailWriteTooEarly {
		t.Fatalf("reason = %q", f.Reason)
	}
}

func TestPrivAntiDependenceViaPrivatizationPasses(t *testing.T) {
	// Read in iteration 1, write in iteration 2 (by another processor):
	// MaxR1st = 1, MinW = 2, 1 <= 2 — privatization removed the anti
	// dependence... but note the read in iteration 1 is a read-first, so
	// the *read* observes pre-loop data, which is exactly what serial
	// execution does. Must pass.
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.read(t, 0, r, 7)
	e.c.BeginIteration(1, 2)
	e.write(t, 1, r, 7)
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("privatizable anti dependence failed: %v", f)
	}
}

func TestPrivSameIterReadWriteByLaterWriterPasses(t *testing.T) {
	// Iteration 2 writes then reads; iteration 1 (other proc) just
	// writes. MinW=1, MaxR1st stays 0 (read was preceded by write in
	// its own iteration).
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 9)
	e.c.BeginIteration(1, 2)
	e.write(t, 1, r, 9)
	e.read(t, 1, r, 9)
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestPrivSameProcCrossIterationFlowFails(t *testing.T) {
	// Iteration-wise semantics: even on one processor, a read in
	// iteration 6 of an element written in iteration 5 is a
	// cross-iteration flow dependence.
	e, r, _ := privEnv(t, 1, true)
	e.c.BeginIteration(0, 5)
	e.write(t, 0, r, 2)
	e.c.BeginIteration(0, 6)
	err := e.read(t, 0, r, 2)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("same-processor cross-iteration flow not detected")
	}
}

func TestPrivIterationBitsCleared(t *testing.T) {
	// A second read of the same element in a later iteration is again
	// read-first (tags cleared), producing a second read-first signal.
	e, r, _ := privEnv(t, 1, true)
	e.c.BeginIteration(0, 1)
	e.read(t, 0, r, 4)
	before := e.c.Stats.ReadFirstSignals + e.c.Stats.ReadIns
	e.c.BeginIteration(0, 2)
	e.read(t, 0, r, 4)
	after := e.c.Stats.ReadFirstSignals + e.c.Stats.ReadIns
	if after == before {
		t.Fatal("second-iteration read did not re-detect read-first")
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("read-only across iterations failed: %v", f)
	}
}

func TestPrivRepeatReadSameIterationNoSignal(t *testing.T) {
	e, r, _ := privEnv(t, 1, true)
	e.c.BeginIteration(0, 1)
	e.read(t, 0, r, 4)
	mid := e.c.Stats.ReadFirstSignals + e.c.Stats.ReadIns
	e.read(t, 0, r, 4) // same iteration: Read1st already set
	if got := e.c.Stats.ReadFirstSignals + e.c.Stats.ReadIns; got != mid {
		t.Fatalf("repeat read sent another signal (%d -> %d)", mid, got)
	}
}

func TestPrivWithoutRICOReadFirstFails(t *testing.T) {
	// Without read-in support, a read of a never-written element
	// observes an undefined private copy: conservatively a failure.
	e, r, _ := privEnv(t, 2, false)
	e.c.BeginIteration(0, 1)
	err := e.read(t, 0, r, 3)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("read-in without RICO support not flagged")
	}
}

func TestPrivWithoutRICOWriteFirstPasses(t *testing.T) {
	e, r, _ := privEnv(t, 2, false)
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 3)
	if err := e.read(t, 0, r, 3); err != nil {
		t.Fatalf("read after write: %v", err)
	}
	e.c.BeginIteration(1, 2)
	e.write(t, 1, r, 3)
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestPrivReadInChargesTransfer(t *testing.T) {
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	lat, err := e.c.Read(0, r.ElemAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	// Latency must include both the private fill (local, 60) and the
	// read-in transfer from the shared home.
	if lat < 60+60 {
		t.Fatalf("read-in latency = %d, expected fill + transfer", lat)
	}
	if e.c.Stats.ReadIns != 1 {
		t.Fatalf("ReadIns = %d, want 1", e.c.Stats.ReadIns)
	}
}

func TestPrivLocalHitIsFast(t *testing.T) {
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 0)
	lat, err := e.c.Read(0, r.ElemAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	if lat != e.m.Cfg.Lat.L1Hit {
		t.Fatalf("private hit latency = %d, want %d", lat, e.m.Cfg.Lat.L1Hit)
	}
}

func TestPrivSuperIterations(t *testing.T) {
	// Block scheduling: each processor's chunk is one superiteration
	// (§4.1). Dependences inside a chunk are invisible; dependences
	// across chunks still fail.
	e, r, _ := privEnv(t, 2, true)
	// Chunk 1 (proc 0): write elem 3 then read it in a "different"
	// paper iteration but the same superiteration — passes.
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 3)
	e.read(t, 0, r, 3)
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("intra-chunk dependence should be hidden: %v", f)
	}
	// Chunk 2 (proc 1) reads elem 3 first: cross-chunk flow — fails.
	e.c.BeginIteration(1, 2)
	err := e.read(t, 1, r, 3)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("cross-chunk dependence not detected")
	}
}

func TestPrivEvictionFallsBackToPrivateDirectory(t *testing.T) {
	// After the private line is evicted, the PMaxR1st/PMaxW state in the
	// private directory still classifies accesses (Figure 8-(c)).
	e, r, arr := privEnv(t, 1, true)
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 0)
	// Evict the private line by filling L2 with plain data.
	cfg := e.m.Cfg
	lines := cfg.L2.SizeBytes / cfg.L2.LineBytes
	pad := e.m.Space.Alloc("pad", lines*16, 4, mem.Local, 0)
	for i := 0; i < lines; i++ {
		e.m.Read(0, pad.ElemAddr(i*16))
	}
	if e.m.Procs[0].L2.Resident(arr.Priv[0].ElemAddr(0)) {
		t.Fatal("setup: private line not evicted")
	}
	// Same iteration read after eviction: PMaxW == iter, so this is NOT
	// read-first; no new signal, no failure.
	before := e.c.Stats.ReadFirstSignals
	if err := e.read(t, 0, r, 0); err != nil {
		t.Fatalf("read after eviction: %v", err)
	}
	if e.c.Stats.ReadFirstSignals != before {
		t.Fatal("read after write misclassified as read-first")
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestPrivCopyOutChargesWrittenLines(t *testing.T) {
	e, r, arr := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	// Write 3 elements spanning 2 lines (elems 0 and 20 are 80 bytes
	// apart).
	e.write(t, 0, r, 0)
	e.write(t, 0, r, 1)
	e.write(t, 0, r, 20)
	lat := e.c.CopyOut(arr, 0)
	if lat <= 0 {
		t.Fatal("copy-out of written lines should cost time")
	}
	if e.c.Stats.CopyOuts != 2 {
		t.Fatalf("CopyOuts = %d, want 2 lines", e.c.Stats.CopyOuts)
	}
	// Processor 1 wrote nothing: free.
	if lat := e.c.CopyOut(arr, 1); lat != 0 {
		t.Fatalf("idle processor copy-out = %d, want 0", lat)
	}
}

func TestPrivManyIterationsIndependentPass(t *testing.T) {
	// A full doall: each iteration works on its own element, read after
	// write, scattered across processors.
	e, r, _ := privEnv(t, 4, true)
	iter := 1
	for i := 0; i < 64; i++ {
		p := i % 4
		e.c.BeginIteration(p, iter)
		e.write(t, p, r, i)
		e.read(t, p, r, i)
		iter++
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("independent doall failed: %v", f)
	}
}

func TestPrivStatsCount(t *testing.T) {
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.read(t, 0, r, 0)
	e.write(t, 0, r, 1)
	if e.c.Stats.PrivReads != 1 || e.c.Stats.PrivWrites != 1 {
		t.Fatalf("stats = %+v", e.c.Stats)
	}
}

func TestBeginIterationValidation(t *testing.T) {
	e, _, _ := privEnv(t, 2, true)
	defer func() {
		if recover() == nil {
			t.Fatal("BeginIteration(p, 0) did not panic")
		}
	}()
	e.c.BeginIteration(0, 0)
}

func TestPrivFailureRecordsContext(t *testing.T) {
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.write(t, 0, r, 7)
	e.c.BeginIteration(1, 2)
	e.read(t, 1, r, 7)
	e.settle()
	f := e.failed()
	if f == nil {
		t.Fatal("expected failure")
	}
	if f.Array != "A" || f.Elem != 7 {
		t.Fatalf("failure context = %+v", *f)
	}
}

func TestTwoArraysIndependentState(t *testing.T) {
	// A non-privatized and a privatized array in the same loop: state
	// and failures stay per-array.
	e := newEnv(t, 2)
	rn := e.alloc("N", 64, 4)
	rp := e.alloc("P", 64, 4)
	e.c.AddNonPriv(rn)
	e.c.AddPriv(rp, PrivCopies(e.m.Space, rp, 2), true)
	e.c.Arm()
	e.c.BeginIteration(0, 1)
	e.c.BeginIteration(1, 2)
	// Legal traffic on both.
	e.write(t, 0, rn, 0)
	e.write(t, 1, rn, 1)
	e.write(t, 0, rp, 5)
	e.read(t, 0, rp, 5)
	e.settle()
	e.m.FlushCaches()
	if f := e.failed(); f != nil {
		t.Fatalf("independent arrays failed: %v", f)
	}
	// A dependence on N must name N.
	err := e.read(t, 1, rn, 0)
	e.settle()
	f := e.failed()
	if err == nil && f == nil {
		t.Fatal("dependence on N missed")
	}
	if f != nil && f.Array != "N" {
		t.Fatalf("failure names %q, want N", f.Array)
	}
}

func TestLateMessagesIgnoredAfterDisarm(t *testing.T) {
	e, r, _ := privEnv(t, 2, true)
	e.c.BeginIteration(0, 1)
	e.read(t, 0, r, 3) // read-first signal in flight
	e.c.Disarm()
	e.settle() // message delivered after disarm: generation-guarded
	if f := e.failed(); f != nil {
		t.Fatalf("stale message caused failure: %v", f)
	}
}

func TestArmResetsBetweenLoops(t *testing.T) {
	e, r, arr := privEnv(t, 2, true)
	e.c.BeginIteration(0, 5)
	e.write(t, 0, r, 1)
	e.settle()
	e.c.Disarm()
	e.m.FlushCaches()
	e.c.Arm()
	if _, minW := arr.SharedStamps(1); minW != int32(1<<31-1) {
		t.Fatalf("minW not reset: %d", minW)
	}
	// Fresh loop: a read-first at iteration 1 passes.
	e.c.BeginIteration(1, 1)
	if err := e.read(t, 1, r, 1); err != nil {
		t.Fatalf("read in fresh loop failed: %v", err)
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("fresh loop failed: %v", f)
	}
}
