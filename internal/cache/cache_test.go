package cache

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"specrt/internal/abits"
	"specrt/internal/mem"
)

func small() *Cache { return New(Config{SizeBytes: 256, LineBytes: 64}) } // 4 frames

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64},
		{SizeBytes: 64, LineBytes: 0},
		{SizeBytes: 100, LineBytes: 64},
		{SizeBytes: 128, LineBytes: 6},
		{SizeBytes: 96, LineBytes: 12}, // a word multiple, not a power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v should be invalid", c)
		}
	}
	if err := (Config{SizeBytes: 32768, LineBytes: 64}).Validate(); err != nil {
		t.Fatalf("paper L1 config invalid: %v", err)
	}
}

func TestLineAddrAndWordIndex(t *testing.T) {
	c := small()
	if c.LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr = %#x", c.LineAddr(0x1234))
	}
	if c.WordIndex(0x1234) != 13 { // 0x34 = 52; 52/4 = 13
		t.Fatalf("WordIndex = %d, want 13", c.WordIndex(0x1234))
	}
	if c.WordIndex(0x1200) != 0 {
		t.Fatalf("WordIndex of line base = %d", c.WordIndex(0x1200))
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x1000) != nil {
		t.Fatal("cold cache should miss")
	}
	c.Install(0x1000, Clean, nil)
	fr := c.Lookup(0x1010) // same line
	if fr == nil || fr.State() != Clean {
		t.Fatal("expected hit on installed line")
	}
	// Lookup leaves hit/miss accounting to the machine (Machine.Take).
	if c.Stats.Hits != 0 || c.Stats.Misses != 0 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestConflictEviction(t *testing.T) {
	c := small() // 4 frames, lines map by (addr/64)%4
	c.Install(0x0000, Dirty, nil)
	victim, ev := c.Install(0x0000+256, Clean, nil) // same set
	if !ev || victim.Tag != 0x0000 || victim.State != Dirty {
		t.Fatalf("eviction wrong: %+v %v", victim, ev)
	}
	if c.Stats.Evictions != 1 || c.Stats.Writebacks != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	// Reinstalling the same line is not an eviction.
	if _, ev := c.Install(0x0100, Dirty, nil); ev {
		t.Fatal("reinstall of resident line must not evict")
	}
}

func TestBitsTravelWithInstall(t *testing.T) {
	c := small()
	bits := make([]abits.Word, 16)
	bits[3] = abits.Word(0).WithFirst(abits.FirstOwn).WithNoShr(true)
	c.Install(0x2000, Clean, bits)
	fr := c.Lookup(0x200c)
	if fr == nil {
		t.Fatal("line not resident")
	}
	if got := c.Bits(fr)[3]; got.First() != abits.FirstOwn || !got.NoShr() {
		t.Fatalf("bits lost: %v", got)
	}
	// Install copies: mutating the source must not alias.
	bits[3] = 0
	if c.Bits(fr)[3] == 0 {
		t.Fatal("Install aliased caller's bit slice")
	}
}

func TestInstallBadBitsLenPanics(t *testing.T) {
	c := small()
	defer func() {
		if recover() == nil {
			t.Fatal("short bits slice did not panic")
		}
	}()
	c.Install(0x0, Clean, make([]abits.Word, 3))
}

func TestEnsureBits(t *testing.T) {
	c := small()
	c.Install(0x1000, Dirty, nil)
	fr := c.Lookup(0x1000)
	b := c.EnsureBits(fr)
	if len(b) != 16 {
		t.Fatalf("EnsureBits len = %d", len(b))
	}
	b[0] = b[0].WithROnly(true)
	if !c.Bits(c.Lookup(0x1000))[0].ROnly() {
		t.Fatal("EnsureBits did not attach to the line")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Install(0x3000, Dirty, nil)
	old, ok := c.Invalidate(0x3004)
	if !ok || old.State != Dirty || old.Tag != 0x3000 {
		t.Fatalf("Invalidate = %+v %v", old, ok)
	}
	if c.Resident(0x3000) {
		t.Fatal("line still resident after invalidate")
	}
	if _, ok := c.Invalidate(0x3000); ok {
		t.Fatal("double invalidate reported ok")
	}
}

func TestDowngrade(t *testing.T) {
	c := small()
	c.Install(0x3000, Dirty, nil)
	old, ok := c.Downgrade(0x3000)
	if !ok || old.State != Dirty {
		t.Fatalf("Downgrade = %+v %v", old, ok)
	}
	if fr := c.Lookup(0x3000); fr == nil || fr.State() != Clean {
		t.Fatal("line not Clean after downgrade")
	}
	if _, ok := c.Downgrade(0x9999000); ok {
		t.Fatal("Downgrade of absent line reported ok")
	}
}

func TestFlushAll(t *testing.T) {
	c := small()
	c.Install(0x0000, Dirty, nil)
	c.Install(0x0040, Clean, nil)
	var wb []mem.Addr
	c.FlushAll(func(l Line) { wb = append(wb, l.Tag) })
	if len(wb) != 1 || wb[0] != 0x0000 {
		t.Fatalf("writebacks = %v, want [0x0]", wb)
	}
	if c.Resident(0x0000) || c.Resident(0x0040) {
		t.Fatal("lines resident after flush")
	}
	if c.Stats.Flushes != 1 {
		t.Fatalf("Flushes = %d", c.Stats.Flushes)
	}
}

func TestClearBitsSelective(t *testing.T) {
	c := small()
	bits := make([]abits.Word, 16)
	for i := range bits {
		bits[i] = bits[i].WithRead1st(true).WithWrite(true).WithNoShr(true)
	}
	c.Install(0x0000, Clean, bits)
	c.Install(0x0040, Clean, bits)
	// Clear iteration bits only for lines above 0x40.
	c.ClearBits(func(line mem.Addr) bool { return line >= 0x40 },
		abits.Word.ClearIteration)
	if w := c.Bits(c.Lookup(0x0000))[0]; !w.Read1st() {
		t.Fatal("line outside predicate was cleared")
	}
	if w := c.Bits(c.Lookup(0x0040))[0]; w.Read1st() || w.Write() {
		t.Fatal("line inside predicate was not cleared")
	}
	if w := c.Bits(c.Lookup(0x0040))[0]; !w.NoShr() {
		t.Fatal("ClearIteration cleared non-iteration bits")
	}
	// nil keep clears everything.
	c.ClearBits(nil, func(abits.Word) abits.Word { return 0 })
	if w := c.Bits(c.Lookup(0x0000))[5]; w != 0 {
		t.Fatal("general reset missed a line")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "INVALID" || Clean.String() != "CLEAN" || Dirty.String() != "DIRTY" {
		t.Fatal("State strings wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should stringify")
	}
}

// Property: after Install(a), Lookup(a) hits with the installed state, and
// any other line mapping to the same set is gone.
func TestPropertyInstallLookup(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{SizeBytes: 1024, LineBytes: 64})
		for _, raw := range addrs {
			a := mem.Addr(raw)
			c.Install(a, Clean, nil)
			fr := c.Lookup(a)
			if fr == nil || c.Tag(fr) != c.LineAddr(a) {
				return false
			}
		}
		// Direct-mapped invariant: at most one line per set.
		seen := map[int]mem.Addr{}
		for i := 0; i < c.Lines(); i++ {
			_ = seen
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression: an evicted victim's Bits must not alias the frame's new
// contents — the victim travels with the writeback and must keep the OLD
// line's access bits.
func TestVictimBitsNotAliased(t *testing.T) {
	c := small()
	old := make([]abits.Word, 16)
	old[4] = old[4].WithFirst(abits.FirstOwn).WithNoShr(true)
	c.Install(0x0000, Dirty, old)
	new4 := make([]abits.Word, 16)
	new4[4] = new4[4].WithROnly(true)
	victim, ev := c.Install(0x0100, Dirty, new4) // same set, conflicting line
	if !ev {
		t.Fatal("expected eviction")
	}
	if victim.Bits[4].First() != abits.FirstOwn || !victim.Bits[4].NoShr() {
		t.Fatalf("victim bits corrupted by install: %v", victim.Bits[4])
	}
	if victim.Bits[4].ROnly() {
		t.Fatal("victim bits alias the new line's bits")
	}
}

// Frames are stored by value in a flat array: 8 bytes each, with no
// pointer the garbage collector would have to scan.
func TestFrameIsPointerFree8Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(Frame{}); sz != 8 {
		t.Fatalf("Frame is %d bytes, want 8", sz)
	}
	ft := reflect.TypeOf(Frame{})
	for i := 0; i < ft.NumField(); i++ {
		f := ft.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		default:
			t.Errorf("Frame.%s has kind %v, want a pointer-free scalar", f.Name, f.Type.Kind())
		}
	}
}

// The packed tag word must keep line number and state apart at both ends
// of the representable range: line 0 in any valid state is not an empty
// frame, and the highest line is not confused with a line that differs
// from it only in the top bit of its number (same set) or lies the whole
// address bound above it.
func TestFramePacking(t *testing.T) {
	const lb = 64
	maxAddr := mem.Addr(small().Config().MaxAddr())
	if maxAddr != MaxLines*lb {
		t.Fatalf("MaxAddr = %#x, want %d lines of %d bytes", maxAddr, MaxLines, lb)
	}
	for _, line := range []mem.Addr{0, maxAddr - lb} {
		alias := line ^ maxAddr>>1 // same set, top line-number bit flipped
		for _, st := range []State{Clean, Dirty} {
			c := small()
			want := func(op string, got Line, ok bool, st State) {
				t.Helper()
				if !ok || got.Tag != line || got.State != st {
					t.Fatalf("line %#x: %s = %#x %v %v, want %#x %v", line, op, got.Tag, got.State, ok, line, st)
				}
			}
			miss := func(op string) {
				t.Helper()
				for _, a := range []mem.Addr{line, alias, line + maxAddr} {
					if c.Lookup(a+4) != nil {
						t.Fatalf("line %#x (%v): Lookup(%#x) hit %s", line, st, a+4, op)
					}
				}
			}
			miss("in an empty cache")
			c.Install(line+lb-1, st, nil)
			fr := c.Lookup(line + 4)
			if fr == nil || c.Tag(fr) != line || fr.State() != st {
				t.Fatalf("line %#x: Install(%v) then Lookup = %+v", line, st, fr)
			}
			for _, a := range []mem.Addr{alias, line + maxAddr} {
				if _, ok := c.Invalidate(a); ok {
					t.Fatalf("line %#x: Invalidate(%#x) removed it", line, a)
				}
				if _, ok := c.Downgrade(a); ok {
					t.Fatalf("line %#x: Downgrade(%#x) reported ok", line, a)
				}
			}
			old, ok := c.Downgrade(line)
			want("Downgrade", old, ok, st)
			old, ok = c.Invalidate(line)
			want("Invalidate", old, ok, Clean)
			miss("after Invalidate")

			c.Install(line, Clean, nil)
			c.Lookup(line).SetState(st)
			victim, ev := c.Install(alias, Clean, nil)
			want("eviction victim", victim, ev, st)
			victim, ev = c.Install(line, st, nil)
			if !ev || victim.Tag != alias || victim.State != Clean {
				t.Fatalf("line %#x: evicting the aliasing line gave %#x %v %v", line, victim.Tag, victim.State, ev)
			}
			var flushed []Line
			c.FlushAll(func(l Line) { flushed = append(flushed, l) })
			if st == Dirty {
				if len(flushed) != 1 {
					t.Fatalf("line %#x: FlushAll wrote back %d lines, want 1", line, len(flushed))
				}
				want("FlushAll", flushed[0], true, Dirty)
			} else if len(flushed) != 0 {
				t.Fatalf("line %#x: FlushAll wrote back a clean line", line)
			}
			miss("after FlushAll")
			c.Release()
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Install at MaxAddr did not panic")
		}
	}()
	small().Install(maxAddr, Clean, nil)
}

// checkWalkOrder fills every other set highest-first (so install order is
// the reverse of set order, and tags are not monotone in set), then
// invalidates one set and reinstalls it: the Invalid->valid transition
// happens twice for that set. A second set is invalidated and left empty.
// Every whole-cache walk must still visit each valid frame exactly once,
// in ascending set order.
func checkWalkOrder(t *testing.T, cfg Config) {
	t.Helper()
	c := New(cfg)
	defer c.Release()
	n := c.Lines()
	lb := mem.Addr(cfg.LineBytes)
	bits := make([]abits.Word, cfg.LineBytes/abits.WordBytes)
	tag := func(s int) mem.Addr { return mem.Addr(s+n*(s%3)) * lb } // set s, one of three cache-sized pages
	resident := 0
	for s := n - 1; s >= 0; s -= 2 {
		c.Install(tag(s), Dirty, bits)
		resident++
	}
	if _, ok := c.Invalidate(tag(n - 1)); !ok {
		t.Fatal("set n-1 not resident")
	}
	c.Install(tag(n-1), Dirty, bits)
	if _, ok := c.Invalidate(tag(n - 3)); !ok {
		t.Fatal("set n-3 not resident")
	}
	resident--

	ascending := func(walk string, tags []mem.Addr) {
		t.Helper()
		if len(tags) != resident {
			t.Fatalf("%s visited %d frames, want %d", walk, len(tags), resident)
		}
		for i := 1; i < len(tags); i++ {
			prev, next := c.set(c.lineNum(tags[i-1])), c.set(c.lineNum(tags[i]))
			if prev >= next {
				t.Fatalf("%s visited set %d before set %d", walk, prev, next)
			}
		}
	}
	var got []mem.Addr
	c.ClearBits(func(line mem.Addr) bool { got = append(got, line); return true }, abits.Word.ClearIteration)
	ascending("ClearBits", got)
	got = got[:0]
	c.ForEach(func(l Line) { got = append(got, l.Tag) })
	ascending("ForEach", got)
	got = got[:0]
	c.FlushAll(func(l Line) { got = append(got, l.Tag) })
	ascending("FlushAll", got)
	c.ForEach(func(l Line) { t.Fatalf("frame %#x valid after FlushAll", l.Tag) })
}

func TestWalkOrderPow2(t *testing.T) {
	checkWalkOrder(t, Config{SizeBytes: 256 * 64, LineBytes: 64}) // 256 sets, 4 bitmap words
}

func TestWalkOrderNonPow2(t *testing.T) {
	checkWalkOrder(t, Config{SizeBytes: 100 * 64, LineBytes: 64}) // 100 sets, partial last word
	checkWalkOrder(t, Config{SizeBytes: 7 * 64, LineBytes: 64})
}

// Release zeroes exactly the valid frames, so a pooled frame array comes
// back all-Invalid with a clear bitmap.
func TestReleaseLeavesPooledFramesZero(t *testing.T) {
	cfg := Config{SizeBytes: 100 * 64, LineBytes: 64}
	c := New(cfg)
	for i := 0; i < 100; i += 3 {
		c.Install(mem.Addr(i*64), Dirty, nil)
	}
	c.Invalidate(0)
	c.Release()
	c = New(cfg)
	defer c.Release()
	for i, fr := range c.frames {
		if fr != (Frame{}) {
			t.Fatalf("frame %d not zero: %+v", i, fr)
		}
	}
	for i, w := range c.occ {
		if w != 0 {
			t.Fatalf("occupancy word %d = %#x", i, w)
		}
	}
}

// A cache whose lines never carry bits holds no window storage: plain
// installs, evictions, invalidations and flushes take no window.
func TestPlainCacheHoldsNoWindows(t *testing.T) {
	c := New(Config{SizeBytes: 3 * 64, LineBytes: 64}) // a set count no other test pools
	defer c.Release()
	for i := 0; i < 12; i++ {
		c.Install(mem.Addr(i*64), Dirty, nil)
	}
	c.Invalidate(0x40)
	c.Downgrade(0x80)
	c.FlushAll(nil)
	if got := c.wins.Cap(); got != 0 {
		t.Fatalf("plain cache holds %d windows of storage, want 0", got)
	}
}

// Windows go back to the allocator on Invalidate, on eviction by a plain
// line and on FlushAll, so a steady install/drop cycle allocates nothing
// and the window storage stops growing.
func TestWindowsRecycled(t *testing.T) {
	c := small()
	defer c.Release()
	bits := make([]abits.Word, 16)
	var live [4]int
	cycle := func() {
		c.Install(0x0000, Dirty, bits)
		c.Install(0x0040, Clean, nil)
		c.EnsureBits(c.Lookup(0x0040))
		c.Invalidate(0x0000) // frees set 0's window
		live[0] = c.wins.Live()
		c.Install(0x0140, Clean, nil) // evicting 0x40 with a plain line frees set 1's
		live[1] = c.wins.Live()
		c.Install(0x0080, Clean, nil)
		c.SetBits(c.Lookup(0x0080), bits) // claims a window for set 2
		c.Install(0x00c0, Clean, bits)    // and for set 3
		live[2] = c.wins.Live()
		c.FlushAll(func(Line) {}) // frees every window at once
		live[3] = c.wins.Live()
	}
	cycle()
	if live != [4]int{1, 0, 2, 0} {
		t.Fatalf("live windows after invalidate, eviction, installs, flush = %v, want [1 0 2 0]", live)
	}
	held := c.wins.Cap()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("install/drop cycle allocated %v times per run", allocs)
	}
	if c.wins.Cap() != held {
		t.Fatalf("window storage grew from %d to %d windows", held, c.wins.Cap())
	}
	if held > 3 {
		t.Fatalf("cache holds %d windows for at most 2 bit-carrying lines at a time", held)
	}
}

// Window storage never moves: a slice from Bits stays the line's window
// while other frames of the same cache claim windows (and the allocator
// grows new pages).
func TestBitsWindowSurvivesOtherEnsureBits(t *testing.T) {
	c := New(Config{SizeBytes: 256 * 64, LineBytes: 64})
	defer c.Release()
	c.Install(0x0000, Clean, nil)
	w := c.EnsureBits(c.Lookup(0x0000))
	w[1] = w[1].WithROnly(true)
	for i := 1; i < 256; i++ {
		c.Install(mem.Addr(i*64), Clean, nil)
		c.EnsureBits(c.Lookup(mem.Addr(i * 64)))[0] = abits.Word(0).WithWrite(true)
	}
	w[2] = w[2].WithNoShr(true)
	got := c.Bits(c.Lookup(0x0000))
	if !got[1].ROnly() || !got[2].NoShr() || got[0] != 0 {
		t.Fatalf("line 0's bits lost writes through its window: %v", got)
	}
	for i := 1; i < 256; i++ {
		if b := c.Bits(c.Lookup(mem.Addr(i * 64))); !b[0].Write() || b[1] != 0 || b[2] != 0 {
			t.Fatalf("line %d's bits = %v", i, b)
		}
	}
}
