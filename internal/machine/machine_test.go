package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/directory"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// testMachine builds a small 4-node machine without contention so
// latencies are the unloaded §5.1 numbers.
func testMachine(t *testing.T, procs int) *Machine {
	t.Helper()
	cfg := DefaultConfig(procs)
	cfg.Contention = false
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// localArray allocates an array whose pages are all homed at node n.
func localArray(m *Machine, name string, elems, elemSize, n int) mem.Region {
	return m.Space.Alloc(name, elems, elemSize, mem.Local, n)
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(0)
	if _, err := New(bad); err == nil {
		t.Fatal("procs=0 accepted")
	}
	bad = DefaultConfig(4)
	bad.L1.LineBytes = 32
	if _, err := New(bad); err == nil {
		t.Fatal("mismatched line sizes accepted")
	}
	bad = DefaultConfig(4)
	bad.L1.SizeBytes = bad.L2.SizeBytes * 2
	if _, err := New(bad); err == nil {
		t.Fatal("L1 > L2 accepted")
	}
	if _, err := New(DefaultConfig(16)); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
}

// TestPaperLatencies validates the §5.1 unloaded round-trip table:
// primary cache 1, secondary 12, local memory 60, remote 2-hop 208,
// remote 3-hop 291 cycles.
func TestPaperLatencies(t *testing.T) {
	m := testMachine(t, 4)
	local := localArray(m, "local", 1024, 4, 0)
	remote := localArray(m, "remote", 1024, 4, 1)
	third := localArray(m, "third", 1024, 4, 2)

	// Local memory miss: 60.
	if lat := m.Read(0, local.ElemAddr(0)); lat != 60 {
		t.Fatalf("local mem read = %d, want 60", lat)
	}
	// L1 hit: 1.
	if lat := m.Read(0, local.ElemAddr(1)); lat != 1 {
		t.Fatalf("L1 hit = %d, want 1", lat)
	}
	// Remote clean 2-hop: 208.
	if lat := m.Read(0, remote.ElemAddr(0)); lat != 208 {
		t.Fatalf("remote 2-hop read = %d, want 208", lat)
	}
	// Dirty in a third node: 291. Proc 1 dirties a line homed at node 2;
	// proc 0 reads it.
	m.Write(1, third.ElemAddr(0))
	if lat := m.Read(0, third.ElemAddr(0)); lat != 291 {
		t.Fatalf("remote 3-hop read = %d, want 291", lat)
	}
	// L2 hit: fill L1 with conflicting lines, then re-read. L1 is 32 KB,
	// so address + 32 KB maps to the same L1 set but a different L2 set.
	a := local.ElemAddr(0)
	conflict := a + mem.Addr(m.Cfg.L1.SizeBytes)
	m.Read(0, conflict) // evicts a from L1 only
	if lat := m.Read(0, a); lat != 12 {
		t.Fatalf("L2 hit = %d, want 12", lat)
	}
}

func TestWriteNonStalling(t *testing.T) {
	m := testMachine(t, 4)
	remote := localArray(m, "remote", 64, 4, 3)
	// Write miss to remote memory observes only the L1 time.
	if lat := m.Write(0, remote.ElemAddr(0)); lat != m.Cfg.Lat.L1Hit {
		t.Fatalf("write miss latency = %d, want %d", lat, m.Cfg.Lat.L1Hit)
	}
	// But the line is now dirty in proc 0's caches and the directory
	// knows it.
	e := m.Dir(remote.ElemAddr(0))
	if e.State != directory.Dirty || e.Owner != 0 {
		t.Fatalf("dir after write = %+v", *e)
	}
	if fr := m.Procs[0].L1.Lookup(remote.ElemAddr(0)); fr == nil || fr.State != cache.Dirty {
		t.Fatal("line not dirty in L1 after write")
	}
}

func TestReadSharing(t *testing.T) {
	m := testMachine(t, 4)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	m.Read(1, a)
	m.Read(2, a)
	e := m.Dir(a)
	d := m.Dirs[m.HomeOf(a)]
	if e.State != directory.Shared || !d.HasSharer(e, 1) || !d.HasSharer(e, 2) {
		t.Fatalf("dir after two reads = %+v", *e)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := testMachine(t, 4)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	m.Read(1, a)
	m.Read(2, a)
	m.Write(3, a)
	if m.Procs[1].L1.Resident(a) || m.Procs[2].L1.Resident(a) {
		t.Fatal("sharer copies survived a write")
	}
	e := m.Dir(a)
	if e.State != directory.Dirty || e.Owner != 3 {
		t.Fatalf("dir after write = %+v", *e)
	}
	if m.Stats.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", m.Stats.Invalidations)
	}
}

func TestUpgradeKeepsRequesterCopy(t *testing.T) {
	m := testMachine(t, 4)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	m.Read(1, a)
	m.Read(2, a)
	m.Write(1, a) // upgrade
	if !m.Procs[1].L1.Resident(a) {
		t.Fatal("upgrading processor lost its copy")
	}
	if m.Procs[2].L1.Resident(a) {
		t.Fatal("other sharer survived upgrade")
	}
	if m.Stats.Upgrades != 1 {
		t.Fatalf("Upgrades = %d, want 1", m.Stats.Upgrades)
	}
}

func TestDirtyReadDowngradesOwner(t *testing.T) {
	m := testMachine(t, 4)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	m.Write(1, a)
	m.Read(2, a)
	// Owner keeps a clean copy; both are sharers now.
	fr := m.Procs[1].L1.Lookup(a)
	if fr == nil || fr.State != cache.Clean {
		t.Fatalf("owner copy after read by other = %+v", fr)
	}
	e := m.Dir(a)
	d := m.Dirs[m.HomeOf(a)]
	if e.State != directory.Shared || !d.HasSharer(e, 1) || !d.HasSharer(e, 2) {
		t.Fatalf("dir = %+v", *e)
	}
}

func TestWritebackBitsReachHook(t *testing.T) {
	m := testMachine(t, 4)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)

	var gotLine mem.Addr
	var gotBits []abits.Word
	var gotOwner int
	m.OnDirtyWriteback = func(owner int, line mem.Addr, bits []abits.Word) {
		gotOwner = owner
		gotLine = line
		gotBits = bits
	}

	// Dirty the line with bits via the spec-path FetchWrite.
	bits := make([]abits.Word, 16)
	bits[0] = bits[0].WithNoShr(true)
	_, err := m.FetchWrite(1, a, func(wb *cache.Line, wbOwner int) ([]abits.Word, error) { return bits, nil })
	if err != nil {
		t.Fatal(err)
	}
	// Plain read by another proc forces the writeback through the plain
	// visitHome, which must forward the bits.
	m.Read(2, a)
	if gotLine != m.LineAddr(a) {
		t.Fatalf("hook line = %#x, want %#x", gotLine, m.LineAddr(a))
	}
	if len(gotBits) == 0 || !gotBits[0].NoShr() {
		t.Fatalf("hook bits = %v", gotBits)
	}
	if gotOwner != 1 {
		t.Fatalf("hook owner = %d, want 1", gotOwner)
	}
}

func TestFlushCachesWritesBackDirty(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	m.Write(0, a)
	count := 0
	m.OnDirtyWriteback = func(owner int, line mem.Addr, bits []abits.Word) { count++ }
	m.FlushCaches()
	if count != 1 {
		t.Fatalf("flush wrote back %d lines, want 1", count)
	}
	if m.Procs[0].L1.Resident(a) || m.Procs[0].L2.Resident(a) {
		t.Fatal("line survived flush")
	}
	if m.Dir(a).State != directory.Uncached {
		t.Fatal("directory not reset by flush")
	}
}

func TestContentionQueueing(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Contention = true
	m := MustNew(cfg)
	arr := m.Space.Alloc("a", 4096, 4, mem.Local, 0)
	// Two different lines homed at node 0, requested back-to-back at the
	// same simulated time by different processors: the second must queue.
	l0 := m.Read(1, arr.ElemAddr(0))
	l1 := m.Read(2, arr.ElemAddr(64))
	if l0 != 208 {
		t.Fatalf("first read = %d, want 208", l0)
	}
	if l1 != 208+m.Cfg.Lat.HomeOccLine {
		t.Fatalf("queued read = %d, want %d", l1, 208+m.Cfg.Lat.HomeOccLine)
	}
}

func TestSendToHomeDefersAndQueues(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 1)
	ran := int64(-1)
	m.SendToHome(0, arr.ElemAddr(0), func() error {
		ran = m.Eng.Now()
		return nil
	})
	if ran != -1 {
		t.Fatal("SendToHome ran synchronously")
	}
	m.Eng.Run()
	if ran != m.Cfg.Lat.MsgHop {
		t.Fatalf("message processed at %d, want %d", ran, m.Cfg.Lat.MsgHop)
	}
}

func TestSendToHomeFailureReachesOnFail(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	var got error
	m.OnFail = func(err error) { got = err }
	m.SendToHome(1, arr.ElemAddr(0), func() error { return errSentinel })
	m.Eng.Run()
	if got != errSentinel {
		t.Fatalf("OnFail got %v", got)
	}
}

var errSentinel = &testError{}

type testError struct{}

func (*testError) Error() string { return "sentinel" }

func TestSendToProc(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	ran := false
	m.SendToProc(1, arr.ElemAddr(0), func() error { ran = true; return nil })
	m.Eng.Run()
	if !ran {
		t.Fatal("SendToProc never ran")
	}
}

func TestOnTransactionHook(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	type tx struct {
		kind TxKind
		proc int
		line mem.Addr
	}
	var seen []tx
	m.OnTransaction = func(kind TxKind, proc int, line mem.Addr) {
		seen = append(seen, tx{kind, proc, line})
	}
	m.Read(1, a)
	m.SendToHome(1, a, func() error { return nil })
	m.SendToProc(0, a, func() error { return nil })
	m.Eng.Run()
	want := []tx{
		{TxFetchRead, 1, m.LineAddr(a)},
		{TxHomeMsg, 1, m.LineAddr(a)},
		{TxProcMsg, 0, m.LineAddr(a)},
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d transactions, want %d: %+v", len(seen), len(want), seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("tx[%d] = %+v, want %+v", i, seen[i], want[i])
		}
	}
}

func TestMsgDelayStretchesDelivery(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	m.MsgDelay = func(from, to int, base sim.Time) sim.Time { return base + 100 }
	var at sim.Time
	m.SendToHome(1, a, func() error { at = m.Eng.Now(); return nil })
	m.Eng.Run()
	if want := m.Cfg.Lat.MsgHop + 100; at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
	// Delays below the base hop latency are clamped to it.
	m.MsgDelay = func(from, to int, base sim.Time) sim.Time { return base - 100 }
	start := m.Eng.Now()
	m.SendToHome(1, a, func() error { at = m.Eng.Now(); return nil })
	m.Eng.Run()
	if want := start + m.Cfg.Lat.MsgHop; at != want {
		t.Fatalf("clamped delivery at %d, want %d", at, want)
	}
}

func TestFetchWriteFailAborts(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	_, err := m.FetchWrite(1, a, func(wb *cache.Line, wbOwner int) ([]abits.Word, error) {
		return nil, errSentinel
	})
	if err != errSentinel {
		t.Fatalf("FetchWrite err = %v", err)
	}
	if m.Procs[1].L1.Resident(a) {
		t.Fatal("failed fetch installed the line")
	}
}

func TestClearAllBits(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	bits := make([]abits.Word, 16)
	bits[0] = bits[0].WithROnly(true)
	m.FetchRead(0, a, func(wb *cache.Line, wbOwner int) ([]abits.Word, error) { return bits, nil })
	m.ClearAllBits()
	if l1 := m.Procs[0].L1; l1.Bits(l1.Lookup(a))[0] != 0 {
		t.Fatal("ClearAllBits left bits set")
	}
}

func TestClearBitsRange(t *testing.T) {
	m := testMachine(t, 2)
	arrA := localArray(m, "a", 64, 4, 0)
	arrB := localArray(m, "b", 64, 4, 0)
	mk := func(r mem.Region) {
		bits := make([]abits.Word, 16)
		for i := range bits {
			bits[i] = bits[i].WithRead1st(true)
		}
		m.FetchRead(0, r.ElemAddr(0), func(wb *cache.Line, wbOwner int) ([]abits.Word, error) { return bits, nil })
	}
	mk(arrA)
	mk(arrB)
	m.ClearBitsRange(0, arrB.Base, arrB.End(), abits.Word.ClearIteration)
	l1 := m.Procs[0].L1
	if !l1.Bits(l1.Lookup(arrA.ElemAddr(0)))[0].Read1st() {
		t.Fatal("range clear touched array A")
	}
	if l1.Bits(l1.Lookup(arrB.ElemAddr(0)))[0].Read1st() {
		t.Fatal("range clear missed array B")
	}
}

func TestSyncBitsToL2(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 0)
	a := arr.ElemAddr(0)
	m.Read(0, a)
	line := m.LineAddr(a)
	bits := make([]abits.Word, 16)
	bits[2] = bits[2].WithROnly(true)
	m.SyncBitsToL2(0, line, bits)
	if l2 := m.Procs[0].L2; l2.Lookup(a) == nil || !l2.Bits(l2.Lookup(a))[2].ROnly() {
		t.Fatal("SyncBitsToL2 did not update the L2 copy")
	}
}

func TestChargeHomeTransfer(t *testing.T) {
	m := testMachine(t, 4)
	local := localArray(m, "l", 64, 4, 0)
	remote := localArray(m, "r", 64, 4, 2)
	if lat := m.ChargeHomeTransfer(0, local.ElemAddr(0)); lat != 60 {
		t.Fatalf("local transfer = %d, want 60", lat)
	}
	if lat := m.ChargeHomeTransfer(0, remote.ElemAddr(0)); lat != 208 {
		t.Fatalf("remote transfer = %d, want 208", lat)
	}
}

// Inclusion invariant: after arbitrary plain traffic, every L1-resident
// line is also L2-resident.
func TestInclusionInvariant(t *testing.T) {
	m := testMachine(t, 2)
	arr := m.Space.Alloc("a", 1<<16, 4, mem.RoundRobin, 0)
	// Touch many conflicting addresses.
	for i := 0; i < 5000; i++ {
		a := arr.ElemAddr((i * 97) % arr.Elems)
		if i%3 == 0 {
			m.Write(i%2, a)
		} else {
			m.Read(i%2, a)
		}
	}
	// Structural check: re-probe a sample of recently touched lines.
	for i := 4000; i < 5000; i++ {
		a := arr.ElemAddr((i * 97) % arr.Elems)
		p := m.Procs[i%2]
		if p.L1.Resident(a) && !p.L2.Resident(a) {
			t.Fatalf("inclusion violated for %#x", a)
		}
	}
}

func TestDirtyL1EvictionMergesToL2(t *testing.T) {
	m := testMachine(t, 2)
	arr := m.Space.Alloc("a", 1<<16, 4, mem.Local, 0)
	a := arr.ElemAddr(0)
	m.Write(0, a)
	// Evict a from L1 by touching the conflicting L1 set (L1 is 32 KB).
	conflict := a + mem.Addr(m.Cfg.L1.SizeBytes)
	m.Read(0, conflict)
	if m.Procs[0].L1.Resident(a) {
		t.Fatal("line still in L1")
	}
	fr := m.Procs[0].L2.Lookup(a)
	if fr == nil || fr.State != cache.Dirty {
		t.Fatalf("L2 copy after dirty L1 eviction = %+v", fr)
	}
	// Directory still says dirty owner 0 (silent L1->L2 movement).
	if e := m.Dir(a); e.State != directory.Dirty || e.Owner != 0 {
		t.Fatalf("dir = %+v", *e)
	}
}

// Property: after arbitrary plain traffic, cache and directory state are
// mutually consistent — a dirty cached line has a Dirty directory entry
// naming its holder; a clean cached line is listed as a sharer; no line
// is dirty in two caches.
func TestPropertyCoherenceConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := 2 + rng.Intn(3)
		cfg := DefaultConfig(procs)
		cfg.Contention = false
		// Small caches force evictions.
		cfg.L1 = cache.Config{SizeBytes: 512, LineBytes: 64}
		cfg.L2 = cache.Config{SizeBytes: 2048, LineBytes: 64}
		m := MustNew(cfg)
		arr := m.Space.Alloc("A", 4096, 4, mem.RoundRobin, 0)
		for i := 0; i < 300; i++ {
			p := rng.Intn(procs)
			a := arr.ElemAddr(rng.Intn(arr.Elems))
			if rng.Intn(2) == 0 {
				m.Read(p, a)
			} else {
				m.Write(p, a)
			}
		}
		// Validate every line any cache holds.
		type holder struct {
			proc  int
			state cache.State
		}
		holders := map[mem.Addr][]holder{}
		for _, pr := range m.Procs {
			for _, c := range []*cache.Cache{pr.L1, pr.L2} {
				seen := map[mem.Addr]bool{}
				for e := 0; e < arr.Elems; e += 16 {
					a := arr.ElemAddr(e)
					if fr := c.Lookup(a); fr != nil && !seen[fr.Tag] {
						seen[fr.Tag] = true
						holders[fr.Tag] = append(holders[fr.Tag], holder{pr.ID, fr.State})
					}
				}
			}
		}
		for line, hs := range holders {
			e := m.Dirs[m.HomeOf(line)].Peek(line)
			dirtyProcs := map[int]bool{}
			for _, h := range hs {
				if h.state == cache.Dirty {
					dirtyProcs[h.proc] = true
				}
			}
			if len(dirtyProcs) > 1 {
				return false // two dirty owners
			}
			if len(dirtyProcs) == 1 {
				if e == nil || e.State != directory.Dirty {
					return false
				}
				for p := range dirtyProcs {
					if int(e.Owner) != p {
						return false
					}
				}
				// No other proc may hold any copy of a dirty line.
				procsHolding := map[int]bool{}
				for _, h := range hs {
					procsHolding[h.proc] = true
				}
				if len(procsHolding) != 1 {
					return false
				}
			} else {
				// All copies clean: directory must list each holder.
				if e == nil {
					return false
				}
				if e.State == directory.Shared {
					for _, h := range hs {
						if !m.Dirs[m.HomeOf(line)].HasSharer(e, h.proc) {
							return false
						}
					}
				} else if e.State == directory.Uncached {
					// A clean copy with an Uncached entry would be
					// stale data.
					return false
				} else {
					// Dirty at the directory but clean in caches: the
					// owner silently lost its copy? Not possible here
					// (evictions write back immediately) unless the
					// clean holder is the recorded owner after an L1->
					// L2 fold. Accept only owner-held copies.
					for _, h := range hs {
						if h.proc != int(e.Owner) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLineBytes(t *testing.T) {
	m := testMachine(t, 2)
	if m.LineBytes() != 64 {
		t.Fatalf("LineBytes = %d", m.LineBytes())
	}
}

func TestResetMessagesDropsInFlight(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 1)
	ran := false
	m.SendToHome(0, arr.ElemAddr(0), func() error { ran = true; return nil })
	m.ResetMessages()
	m.Eng.Run()
	if ran {
		t.Fatal("reset message still delivered")
	}
}

func TestDrainMessagesDeliversInOrder(t *testing.T) {
	m := testMachine(t, 2)
	arr := localArray(m, "a", 64, 4, 1)
	var order []int
	m.SendToHome(0, arr.ElemAddr(0), func() error { order = append(order, 1); return nil })
	m.SendToHome(0, arr.ElemAddr(1), func() error { order = append(order, 2); return nil })
	m.DrainMessages(0, 1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("drain order = %v", order)
	}
	// The scheduled engine events must now be no-ops.
	m.Eng.Run()
	if len(order) != 2 {
		t.Fatalf("messages delivered twice: %v", order)
	}
}

func TestDrainMessagesEmptyIsNoop(t *testing.T) {
	m := testMachine(t, 2)
	m.DrainMessages(0, 1) // must not panic
}
