package policy

import "testing"

// record is a test helper: run strategy s once with the given result.
func record(h *History, s Strategy, failed bool, cycles int64) {
	h.Record(Outcome{Strategy: s, Failed: failed, Cycles: cycles})
}

func TestNamesRoundTrip(t *testing.T) {
	for _, s := range Strategies {
		got, err := StrategyByName(s.String())
		if err != nil || got != s {
			t.Fatalf("StrategyByName(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, k := range []Kind{Off, Adaptive} {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Fatalf("KindByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, k := range DirectorKinds {
		got, err := DirectorByName(k.String())
		if err != nil || got != k {
			t.Fatalf("DirectorByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	// Empty spellings mean the defaults (request bodies omit the fields).
	if k, err := KindByName(""); err != nil || k != Off {
		t.Fatalf("KindByName(\"\") = %v, %v", k, err)
	}
	if k, err := DirectorByName(""); err != nil || k != Static {
		t.Fatalf("DirectorByName(\"\") = %v, %v", k, err)
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Fatal("StrategyByName accepted bogus")
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Fatal("KindByName accepted bogus")
	}
	if _, err := DirectorByName("bogus"); err == nil {
		t.Fatal("DirectorByName accepted bogus")
	}
}

func TestKindTextMarshalling(t *testing.T) {
	b, err := Adaptive.MarshalText()
	if err != nil || string(b) != "adaptive" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var k Kind
	if err := k.UnmarshalText([]byte("adaptive")); err != nil || k != Adaptive {
		t.Fatalf("UnmarshalText = %v, %v", k, err)
	}
	var d DirectorKind
	if err := d.UnmarshalText([]byte("cost")); err != nil || d != Cost {
		t.Fatalf("UnmarshalText = %v, %v", d, err)
	}
	if err := d.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("UnmarshalText accepted nope")
	}
}

func TestHistoryRecord(t *testing.T) {
	h := NewHistory(0)
	if h.Instances() != 0 || h.Conf() != ConfInit {
		t.Fatalf("fresh history: instances=%d conf=%d", h.Instances(), h.Conf())
	}

	record(h, HWNonPriv, false, 1000)
	if h.Runs(HWNonPriv) != 1 || h.Fails(HWNonPriv) != 0 || h.Instances() != 1 {
		t.Fatalf("runs=%d fails=%d instances=%d", h.Runs(HWNonPriv), h.Fails(HWNonPriv), h.Instances())
	}
	if h.PredCycles(HWNonPriv) != 1000 {
		t.Fatalf("first observation must seed the estimate, got %d", h.PredCycles(HWNonPriv))
	}
	if h.Conf() != ConfMax {
		t.Fatalf("success should saturate conf at %d, got %d", ConfMax, h.Conf())
	}

	// Nearby observation averages; far observation snaps.
	record(h, HWNonPriv, false, 1200)
	if got := h.PredCycles(HWNonPriv); got != 1100 {
		t.Fatalf("average: got %d, want 1100", got)
	}
	record(h, HWNonPriv, false, 9000)
	if got := h.PredCycles(HWNonPriv); got != 9000 {
		t.Fatalf("snap on >2x move: got %d, want 9000", got)
	}

	// Failures knock confidence down two per failure.
	record(h, HWNonPriv, true, 9000)
	if h.Conf() != ConfMax-2 {
		t.Fatalf("conf after one failure = %d, want %d", h.Conf(), ConfMax-2)
	}
	record(h, HWNonPriv, true, 9000)
	if h.Conf() != 0 {
		t.Fatalf("conf after two failures = %d, want 0", h.Conf())
	}
	if h.Fails(HWNonPriv) != 2 || h.Runs(HWNonPriv) != 5 {
		t.Fatalf("fails=%d runs=%d", h.Fails(HWNonPriv), h.Runs(HWNonPriv))
	}
}

func TestStaticDirectorPins(t *testing.T) {
	d := NewStatic(Decision{Strategy: SWLRPD})
	h := NewHistory(0)
	for i := 0; i < 5; i++ {
		dec := d.Decide(h)
		if dec.Strategy != SWLRPD || dec.Chunk != 0 {
			t.Fatalf("instance %d: static decided %+v", i, dec)
		}
		record(h, dec.Strategy, i%2 == 0, 1000)
	}
	if d.Name() != "static:sw-lrpd" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestThresholdLadder(t *testing.T) {
	d := NewThreshold()
	h := NewHistory(4)

	// Fresh site (conf 2): Level 2, speculate at default chunking.
	if dec := d.Decide(h); dec.Strategy != HWNonPriv || dec.Chunk != 0 {
		t.Fatalf("fresh decision %+v", dec)
	}

	// One failure drops to conf 0 from init 2: Level 0, serial. Serial
	// successes must NOT rebuild confidence (they say nothing about
	// speculation) — only a successful probe does.
	record(h, HWNonPriv, true, 1000)
	if dec := d.Decide(h); dec.Strategy != Serial {
		t.Fatalf("after failure: %+v", dec)
	}
	record(h, Serial, false, 5000)
	if dec := d.Decide(h); dec.Strategy != Serial {
		t.Fatalf("serial success re-armed speculation: %+v", dec)
	}

	// A successful probe raises conf to 1: Level 1 speculates with
	// coarsened chunks.
	record(h, HWNonPriv, false, 1000)
	dec := d.Decide(h)
	if dec.Strategy != HWNonPriv || dec.Chunk != 8 {
		t.Fatalf("level 1 decision %+v, want hw-nonpriv chunk 8", dec)
	}
	// Another success -> conf 2 -> Level 2 at default chunking.
	record(h, dec.Strategy, false, 1000)
	if dec := d.Decide(h); dec.Strategy != HWNonPriv || dec.Chunk != 0 {
		t.Fatalf("level 2 decision %+v", dec)
	}
}

func TestThresholdProbesFromSerial(t *testing.T) {
	d := NewThreshold()
	h := NewHistory(0)

	// Drive confidence to zero.
	record(h, HWNonPriv, true, 1000)
	probes := 0
	for i := 0; i < 2*probePeriod; i++ {
		dec := d.Decide(h)
		if dec.Strategy != Serial {
			probes++
		}
		// Probes fail too: the loop stays racy.
		record(h, dec.Strategy, dec.Strategy != Serial, 1000)
	}
	if probes != 2 {
		t.Fatalf("saw %d probes in %d instances, want 2", probes, 2*probePeriod)
	}
}

func TestThresholdDemotesToPriv(t *testing.T) {
	d := NewThreshold()
	h := NewHistory(0)

	// Non-privatization fails repeatedly; the director must eventually
	// try privatization instead of bouncing between nonpriv and serial.
	sawPriv := false
	for i := 0; i < 4*probePeriod && !sawPriv; i++ {
		dec := d.Decide(h)
		switch dec.Strategy {
		case HWPriv:
			sawPriv = true
		case HWNonPriv:
			record(h, dec.Strategy, true, 2000)
		default:
			record(h, dec.Strategy, false, 5000)
		}
	}
	if !sawPriv {
		t.Fatal("threshold never demoted hw-nonpriv to hw-priv")
	}
}

func TestCostExploresThenExploits(t *testing.T) {
	d := NewCost()
	h := NewHistory(0)

	// Exploration phase: each strategy tried exactly once, speculative
	// ones first.
	costs := map[Strategy]int64{Serial: 8000, SWLRPD: 3000, HWNonPriv: 1000, HWPriv: 1500}
	var seen []Strategy
	for i := 0; i < NumStrategies; i++ {
		dec := d.Decide(h)
		seen = append(seen, dec.Strategy)
		record(h, dec.Strategy, false, costs[dec.Strategy])
	}
	want := []Strategy{HWNonPriv, HWPriv, SWLRPD, Serial}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("explore order %v, want %v", seen, want)
		}
	}

	// Exploitation: the cheapest observed strategy wins every time.
	for i := 0; i < 6; i++ {
		dec := d.Decide(h)
		if dec.Strategy != HWNonPriv {
			t.Fatalf("instance %d: cost picked %v, want hw-nonpriv", i, dec.Strategy)
		}
		record(h, dec.Strategy, false, 1000)
	}
}

func TestCostSwitchesOnPhaseChange(t *testing.T) {
	d := NewCost()
	h := NewHistory(0)

	// Parallel phase: hardware wins.
	run := func(failCost map[Strategy]int64, n int) (counts map[Strategy]int) {
		counts = map[Strategy]int{}
		for i := 0; i < n; i++ {
			dec := d.Decide(h)
			counts[dec.Strategy]++
			c := failCost[dec.Strategy]
			record(h, dec.Strategy, c < 0, abs64(c))
		}
		return counts
	}
	// Phase 1: speculation succeeds cheaply (negative cost = failed).
	run(map[Strategy]int64{Serial: 8000, SWLRPD: 3000, HWNonPriv: 1000, HWPriv: 1500}, 8)
	// Phase 2: speculation now fails and costs more than serial; the
	// director must retreat to serial.
	counts := run(map[Strategy]int64{Serial: 8000, SWLRPD: -11000, HWNonPriv: -10000, HWPriv: -10500}, 3*probePeriod)
	if counts[Serial] == 0 {
		t.Fatalf("cost never retreated to serial: %v", counts)
	}
	// Phase 3: speculation succeeds again; the periodic probe must
	// rediscover it and switch back.
	counts = run(map[Strategy]int64{Serial: 8000, SWLRPD: 3000, HWNonPriv: 1000, HWPriv: 1500}, 3*probePeriod)
	if counts[HWNonPriv] <= counts[Serial] {
		t.Fatalf("cost failed to rediscover hardware speculation: %v", counts)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestDirectorsDeterministic: the same recorded history must produce
// the same decision — replaying a history twice through a fresh
// director pair diverges nowhere.
func TestDirectorsDeterministic(t *testing.T) {
	outcomes := []Outcome{
		{Strategy: HWNonPriv, Cycles: 1000},
		{Strategy: HWNonPriv, Failed: true, Cycles: 4000},
		{Strategy: Serial, Cycles: 3000},
		{Strategy: HWPriv, Cycles: 1200},
		{Strategy: HWPriv, Cycles: 1100},
	}
	for _, kind := range DirectorKinds {
		d1, err := New(kind, Decision{Strategy: HWNonPriv})
		if err != nil {
			t.Fatal(err)
		}
		d2, _ := New(kind, Decision{Strategy: HWNonPriv})
		h1, h2 := NewHistory(0), NewHistory(0)
		for i, o := range outcomes {
			dec1 := d1.Decide(h1)
			dec2 := d2.Decide(h2)
			if dec1 != dec2 {
				t.Fatalf("%v: instance %d decided %+v vs %+v", kind, i, dec1, dec2)
			}
			h1.Record(o)
			h2.Record(o)
		}
	}
}
