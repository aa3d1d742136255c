package core

import (
	"math"
	"strings"
	"testing"

	"specrt/internal/machine"
	"specrt/internal/mem"
)

// env bundles a machine + controller for protocol tests.
type env struct {
	m *machine.Machine
	c *Controller
	// failures delivered asynchronously via machine.OnFail
	async []*Failure
}

func newEnv(t *testing.T, procs int) *env {
	t.Helper()
	cfg := machine.DefaultConfig(procs)
	cfg.Contention = false
	m := machine.MustNew(cfg)
	c := NewController(m)
	e := &env{m: m, c: c}
	m.OnFail = func(err error) {
		if f, ok := err.(*Failure); ok {
			e.async = append(e.async, f)
		}
	}
	return e
}

// alloc allocates a round-robin shared array.
func (e *env) alloc(name string, elems, elemSize int) mem.Region {
	return e.m.Space.Alloc(name, elems, elemSize, mem.RoundRobin, 0)
}

// settle delivers all in-flight protocol messages.
func (e *env) settle() { e.m.Eng.Run() }

// failed reports whether any failure was recorded (sync or async).
func (e *env) failed() *Failure {
	if f := e.c.Failed(); f != nil {
		return f
	}
	if len(e.async) > 0 {
		return e.async[0]
	}
	return nil
}

func (e *env) read(t *testing.T, p int, r mem.Region, idx int) error {
	t.Helper()
	_, err := e.c.Read(p, r.ElemAddr(idx))
	return err
}

func (e *env) write(t *testing.T, p int, r mem.Region, idx int) error {
	t.Helper()
	_, err := e.c.Write(p, r.ElemAddr(idx))
	return err
}

func TestNPSingleProcessorPasses(t *testing.T) {
	e := newEnv(t, 4)
	r := e.alloc("A", 256, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	// One processor reads and writes everything: all elements NoShr.
	for i := 0; i < 256; i++ {
		if err := e.read(t, 0, r, i); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if err := e.write(t, 0, r, i); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestNPReadOnlySharingPasses(t *testing.T) {
	e := newEnv(t, 4)
	r := e.alloc("A", 64, 4)
	arr := e.c.AddNonPriv(r)
	e.c.Arm()
	for p := 0; p < 4; p++ {
		for i := 0; i < 64; i++ {
			if err := e.read(t, p, r, i); err != nil {
				t.Fatalf("p%d read %d: %v", p, i, err)
			}
		}
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
	if _, _, rOnly := arr.NPState(0); !rOnly {
		t.Fatal("element 0 should be marked ROnly in the directory")
	}
}

func TestNPDisjointWritersPass(t *testing.T) {
	e := newEnv(t, 4)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	// Each processor owns a disjoint 16-element block (block-aligned to
	// lines: 16 elems * 4 B = 64 B = one line).
	for p := 0; p < 4; p++ {
		for i := p * 16; i < (p+1)*16; i++ {
			if err := e.write(t, p, r, i); err != nil {
				t.Fatalf("p%d write %d: %v", p, i, err)
			}
			if err := e.read(t, p, r, i); err != nil {
				t.Fatalf("p%d read %d: %v", p, i, err)
			}
		}
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestNPReadOfWrittenFails(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	if err := e.write(t, 0, r, 5); err != nil {
		t.Fatal(err)
	}
	err := e.read(t, 1, r, 5)
	e.settle()
	f := e.failed()
	if err == nil && f == nil {
		t.Fatal("cross-processor read-after-write not detected")
	}
	if f != nil && f.Reason != FailReadOfWritten {
		t.Fatalf("reason = %q", f.Reason)
	}
}

func TestNPWriteOfReadFails(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	if err := e.read(t, 0, r, 5); err != nil {
		t.Fatal(err)
	}
	err := e.write(t, 1, r, 5)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("cross-processor write-after-read not detected")
	}
}

func TestNPWriteOfReadOnlyFails(t *testing.T) {
	e := newEnv(t, 4)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	e.read(t, 0, r, 7)
	e.read(t, 1, r, 7) // element becomes ROnly
	e.settle()
	err := e.write(t, 1, r, 7) // even a reader may not write
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("write to read-only element not detected")
	}
}

func TestNPSameProcReadThenWritePasses(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	e.read(t, 0, r, 3)
	e.settle()
	if err := e.write(t, 0, r, 3); err != nil {
		t.Fatalf("same-processor read->write failed: %v", err)
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

// Two processors read different-but-same-line elements concurrently; the
// loser's First_update bounces and its tag flips to OTHER. A later write
// by the loser must fail.
func TestNPFirstUpdateBounce(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	// Both processors cache the line by reading their own element.
	e.read(t, 0, r, 0)
	e.read(t, 1, r, 1)
	e.settle()
	// Both read element 2 via cache hits; two First_updates race.
	e.read(t, 0, r, 2)
	e.read(t, 1, r, 2)
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("concurrent first reads must not fail: %v", f)
	}
	if e.c.Stats.FirstUpdateFails == 0 {
		t.Fatal("expected a First_update_fail bounce")
	}
	// The loser now has tag.First == OTHER; writing element 2 fails.
	err0 := e.write(t, 0, r, 2)
	err1 := e.write(t, 1, r, 2)
	e.settle()
	if err0 == nil && err1 == nil && e.failed() == nil {
		t.Fatal("write after bounced First_update not detected")
	}
}

// A First_update that arrives after another processor's write observes
// dir.NoShr set: Figure 7-(f) FAIL arm.
func TestNPFirstUpdateVsWriteRace(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	// Both processors cache the line (clean).
	e.read(t, 0, r, 0)
	e.read(t, 1, r, 1)
	e.settle()
	// P0 reads element 2 on a cache hit: First_update is in flight.
	e.read(t, 0, r, 2)
	// Before it lands, P1 writes element 2. P1's write transaction goes
	// to the home immediately and sets dir.First=1, dir.NoShr.
	e.write(t, 1, r, 2)
	// Now P0's First_update arrives and finds NoShr.
	e.settle()
	f := e.failed()
	if f == nil {
		t.Fatal("First_update vs write race not detected")
	}
	if f.Reason != FailFirstVsWrite && f.Reason != FailReadOfWritten && f.Reason != FailWriteOfShared {
		t.Fatalf("unexpected reason %q", f.Reason)
	}
}

// A ROnly_update that arrives after a write observes dir.NoShr: Figure
// 7-(h) FAIL arm.
func TestNPROnlyUpdateVsWriteRace(t *testing.T) {
	e := newEnv(t, 3)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	// P0 reads elem 2 (miss): dir.First = 0.
	e.read(t, 0, r, 2)
	// P1 caches the line by reading elem 1, then reads elem 2 on a hit:
	// its tag shows First=OTHER, so it sends ROnly_update.
	e.read(t, 1, r, 1)
	e.settle()
	e.read(t, 1, r, 2) // ROnly_update in flight
	// P0 writes elem 2 before the update lands. P0 is First, tag not
	// ROnly, so its write succeeds locally and sets dir.NoShr.
	e.write(t, 0, r, 2)
	e.settle()
	if e.failed() == nil {
		t.Fatal("ROnly_update vs write race not detected")
	}
}

// Dirty-line displacement merges tag state into the directory (Figure
// 6-(e)); a subsequent read by another processor must still fail.
func TestNPEvictionMergesState(t *testing.T) {
	e := newEnv(t, 2)
	cfg := e.m.Cfg
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	// A conflicting plain region one L2-size away to force eviction.
	conflictElems := 64
	conflict := e.m.Space.Alloc("pad", conflictElems, 4, mem.Local, 0)
	_ = conflict
	e.c.Arm()
	e.write(t, 0, r, 5) // dirty with OWN/NoShr tags
	// Force eviction of the dirty line from both caches by filling the
	// whole L2 with plain reads.
	lines := cfg.L2.SizeBytes / cfg.L2.LineBytes
	pad := e.m.Space.Alloc("bigpad", lines*cfg.L2.LineBytes/4, 4, mem.Local, 0)
	for i := 0; i < lines; i++ {
		e.m.Read(0, pad.ElemAddr(i*16))
	}
	if e.m.Procs[0].L2.Resident(r.ElemAddr(5)) {
		t.Fatal("test setup: line not evicted")
	}
	// The directory learned First=0, NoShr from the writeback.
	arr := e.c.Arrays()[0]
	if first, noShr, _ := arr.NPState(5); first != 0 || !noShr {
		t.Fatalf("directory state not merged: first=%d noShr=%t", first, noShr)
	}
	err := e.read(t, 1, r, 5)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("dependence hidden by eviction not detected")
	}
}

func TestNPPlainArraysUnaffected(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	plain := e.alloc("B", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	// Cross-processor write/read on the plain array: no failure.
	e.write(t, 0, plain, 5)
	if err := e.read(t, 1, plain, 5); err != nil {
		t.Fatalf("plain array read failed: %v", err)
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("plain array triggered speculation failure: %v", f)
	}
}

func TestNPDisarmStopsChecking(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	e.read(t, 0, r, 1) // First_update may be in flight
	e.c.Disarm()
	e.write(t, 1, r, 1) // plain write now
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("failure after disarm: %v", f)
	}
}

func TestNPRearmClearsState(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	e.write(t, 0, r, 3)
	err := e.read(t, 1, r, 3)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("setup: first loop should fail")
	}
	e.async = nil
	e.m.FlushCaches()
	e.c.Arm()
	if e.c.Failed() != nil {
		t.Fatal("failure survived re-arm")
	}
	// The same access pattern by a single processor now passes.
	if err := e.write(t, 1, r, 3); err != nil {
		t.Fatalf("write after re-arm: %v", err)
	}
	if err := e.read(t, 1, r, 3); err != nil {
		t.Fatalf("read after re-arm: %v", err)
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure after re-arm: %v", f)
	}
}

// The non-privatization algorithm is processor-wise under any iteration
// scheduling (§3.2): interleaved accesses by the same processor to the
// same element never fail.
func TestNPProcessorWiseAnyOrder(t *testing.T) {
	e := newEnv(t, 4)
	r := e.alloc("A", 256, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	// Processor p touches elements p, p+4, p+8, ... in scattered order.
	order := []int{12, 0, 8, 4, 20, 16}
	for _, base := range order {
		p := base % 4
		e.write(t, p, r, base)
		e.read(t, p, r, base)
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

func TestNPStatsCount(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	e.read(t, 0, r, 0)
	e.read(t, 0, r, 1) // hit: First_update
	e.write(t, 0, r, 2)
	e.settle()
	if e.c.Stats.NonPrivReads != 2 || e.c.Stats.NonPrivWrites != 1 {
		t.Fatalf("stats = %+v", e.c.Stats)
	}
	if e.c.Stats.FirstUpdates == 0 {
		t.Fatal("expected at least one First_update")
	}
}

func TestElemsInLine(t *testing.T) {
	s := mem.NewSpace(1)
	r := s.Alloc("A", 100, 8, mem.RoundRobin, 0)
	lo, hi := elemsInLine(r, r.Base, 64)
	if lo != 0 || hi != 8 {
		t.Fatalf("first line elems = [%d,%d), want [0,8)", lo, hi)
	}
	// Last line holds only the tail (100 elems * 8 B = 800 B; lines at
	// 768..832 hold elems 96..100).
	lastLine := r.Base + 768
	lo, hi = elemsInLine(r, lastLine, 64)
	if lo != 96 || hi != 100 {
		t.Fatalf("last line elems = [%d,%d), want [96,100)", lo, hi)
	}
}

func TestWordIndexOf(t *testing.T) {
	s := mem.NewSpace(1)
	r8 := s.Alloc("A", 100, 8, mem.RoundRobin, 0)
	if wi := wordIndexOf(r8, 0, 64); wi != 0 {
		t.Fatalf("elem 0 word = %d", wi)
	}
	if wi := wordIndexOf(r8, 1, 64); wi != 2 {
		t.Fatalf("8-byte elem 1 word = %d, want 2", wi)
	}
	if wi := wordIndexOf(r8, 8, 64); wi != 0 {
		t.Fatalf("elem 8 (next line) word = %d, want 0", wi)
	}
}

func TestProtocolString(t *testing.T) {
	if Plain.String() != "plain" || NonPriv.String() != "non-privatization" || Priv.String() != "privatization" {
		t.Fatal("Protocol strings wrong")
	}
	if Protocol(9).String() == "" {
		t.Fatal("unknown protocol should stringify")
	}
}

func TestFailureError(t *testing.T) {
	f := &Failure{Reason: FailReadOfWritten, Array: "A", Elem: 3, Proc: 1, Iter: 7, At: 42}
	msg := f.Error()
	for _, want := range []string{"A", "elem 3", "proc 1", "iter 7", "cycle 42"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

// Word granularity (§4.1): two 4-byte elements sharing a line but not a
// word are tracked independently.
func TestNPWordGranularityNoFalseSharing(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.Arm()
	e.write(t, 0, r, 0)
	if err := e.write(t, 1, r, 1); err != nil { // same line, different word
		t.Fatalf("false sharing flagged: %v", err)
	}
	e.settle()
	if f := e.failed(); f != nil {
		t.Fatalf("false sharing failure: %v", f)
	}
}

// 8-byte elements use their first word's bits; accesses map correctly.
func TestNPDoubleWordElements(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 8)
	e.c.AddNonPriv(r)
	e.c.Arm()
	e.write(t, 0, r, 0)
	err := e.read(t, 1, r, 0)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("dependence on 8-byte element not detected")
	}
}

func TestControllerArmedFlag(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 16, 4)
	e.c.AddNonPriv(r)
	if e.c.Armed() {
		t.Fatal("controller armed before Arm")
	}
	e.c.Arm()
	if !e.c.Armed() {
		t.Fatal("controller not armed after Arm")
	}
	e.c.Disarm()
	if e.c.Armed() {
		t.Fatal("controller armed after Disarm")
	}
}

func TestLineGrainMapsToLineBase(t *testing.T) {
	e := newEnv(t, 2)
	r := e.alloc("A", 64, 4)
	e.c.AddNonPriv(r)
	e.c.LineGrain = true
	e.c.Arm()
	// Elements 0 and 1 share a line: at line granularity a write by one
	// processor and a read by another of *different* words must fail
	// (false sharing).
	e.write(t, 0, r, 0)
	err := e.read(t, 1, r, 1)
	e.settle()
	if err == nil && e.failed() == nil {
		t.Fatal("line-granularity false sharing not flagged")
	}
}

func TestLineGrainLargeElements(t *testing.T) {
	// Elements as large as a line: grain mapping is the identity.
	e := newEnv(t, 2)
	r := e.alloc("A", 8, 16)
	e.c.AddNonPriv(r)
	e.c.LineGrain = true
	e.c.Arm()
	e.write(t, 0, r, 0)
	if err := e.write(t, 1, r, 4); err != nil { // different line entirely
		t.Fatalf("independent lines flagged: %v", err)
	}
	e.settle()
	e.m.FlushCaches()
	if f := e.failed(); f != nil {
		t.Fatalf("unexpected failure: %v", f)
	}
}

// Arrays take translation slots in registration order, FirstSlot first,
// and those past the slots a uint8 names take none. A stamped access
// reaches the arm and element the address-keyed entry finds: processor
// 0's stamped write and processor 1's read by address of the same
// element conflict, in the last slotted array and in the unslotted one.
func TestSlotsMatchAddressEntry(t *testing.T) {
	e := newEnv(t, 2)
	var arrs []*Array
	for range maxSlots + 1 {
		arrs = append(arrs, e.c.AddNonPriv(e.alloc("A", 16, 4)))
	}
	for i, want := range map[int]uint8{0: FirstSlot, maxSlots - 1: math.MaxUint8, maxSlots: Unstamped} {
		if got := arrs[i].Slot(); got != want {
			t.Fatalf("array %d has slot %d, want %d", i, got, want)
		}
	}
	for _, a := range arrs[maxSlots-1:] {
		e.c.Arm()
		if _, err := e.c.Access(0, a.Region.ElemAddr(3), a.Slot(), 3, true); err != nil {
			t.Fatalf("slot %d: stamped write: %v", a.Slot(), err)
		}
		err := e.read(t, 1, a.Region, 3)
		if f, ok := err.(*Failure); !ok || f.Reason != FailReadOfWritten || f.Elem != 3 {
			t.Fatalf("slot %d: read of the written element = %v, want %q at elem 3", a.Slot(), err, FailReadOfWritten)
		}
	}
}
