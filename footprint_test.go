package specrt_test

// Measured metadata footprint (paper §4): the hardware scheme keeps one
// copy of each element's speculation state (at its home directory, plus
// capacity-bounded tag bits in the caches), while the software LRPD test
// keeps a full set of shadow arrays per processor. The numbers logged
// here back the "Metadata footprint" table in EXPERIMENTS.md; regenerate
// with:
//
//	go test -run TestMetadataFootprint -v .

import (
	"runtime"
	"testing"

	"specrt/internal/abits"
	"specrt/internal/arena"
	"specrt/internal/harness"
	"specrt/internal/lrpd"
	"specrt/internal/run"
)

// liveBytes returns the heap bytes f leaves live: what it returns, not
// the garbage it made on the way (a table's store grows by append).
func liveBytes(f func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// written returns an n-slot table with every slot set, as after a run
// that touches every line.
func written(n int, def int32) *arena.I32 {
	tab := arena.NewI32(n, def)
	for i := 0; i < n; i++ {
		tab.Set(i, 1)
	}
	return tab
}

func TestMetadataFootprint(t *testing.T) {
	const (
		elems = 258 * 64 // Ocean's working set
		procs = 8
	)
	rows := []struct {
		name   string
		copies int // per-processor structures are replicated
		build  func() any
	}{
		{"HW non-priv table (First+NoShr+ROnly), all written", 1, func() any {
			return written(elems, 0)
		}},
		{"HW priv read-in tables (MaxR1st+MinW), all written", 1, func() any {
			return []any{written(elems, 0), written(elems, -1)}
		}},
		{"HW cache tag bits (1 word per 4 B, capacity-bounded)", 1, func() any {
			return make([]abits.Word, elems)
		}},
		{"SW LRPD shadows (Ar/Aw/Anp + MinW/MaxR1st), per proc", procs, func() any {
			s := make([]*lrpd.Shadows, procs)
			for i := range s {
				s[i] = lrpd.NewShadows(elems)
			}
			return s
		}},
	}
	// A privatized array's per-processor table (pMaxW) at 64 processors
	// over 65,536 elements, of which a run touches a handful of lines:
	// it holds a page header per 16 slots plus the touched pages.
	const (
		wideProcs, wideElems, touched = 64, 1 << 16, 8
		pageHeader, page              = 8, 16 * 4
	)
	sparse := liveBytes(func() any {
		tab := arena.NewI32(wideProcs*wideElems, 0)
		for k := 0; k < touched; k++ {
			tab.Set(k*wideElems+k*4096, 1)
		}
		return tab
	})
	t.Logf("%-55s %9.0f B total  %6.2f B/elem", "HW priv pMaxW, 64 procs x 65536 elems, 8 lines touched",
		sparse, sparse/wideElems)
	if bound := float64(wideProcs*wideElems/16*pageHeader + 2*touched*page + 1024); sparse > bound {
		t.Errorf("sparse pMaxW table: %.0f B, want <= %.0f (page headers plus touched pages)", sparse, bound)
	}
	for _, r := range rows {
		total := liveBytes(r.build)
		perElem := total / elems
		t.Logf("%-55s %9.0f B total  %6.2f B/elem", r.name, total, perElem)
		// Sanity bounds: hardware state must stay O(1) bytes/element and
		// the software shadows must scale with the processor count.
		if r.copies == 1 && perElem > 20 {
			t.Errorf("%s: %.2f B/elem, want <= 20 (dense single-copy state)", r.name, perElem)
		}
		if r.copies > 1 && perElem < 8*float64(r.copies) {
			t.Errorf("%s: %.2f B/elem, want >= %d (per-processor shadows)", r.name, perElem, 8*r.copies)
		}
	}
}

// The live heap does not grow across passes: one cell set run again and
// again leaves the same heap in use after a forced GC. Pass 12 stays
// within 5% of pass 2 (pass 1 also grows the process's one-time state).
func TestLiveHeapFlatAcrossPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cell set 12 times")
	}
	cells := []struct {
		loop  string
		mode  run.Mode
		procs int
	}{
		{"P3m", run.HW, 16}, {"P3m", run.SW, 16}, {"Ocean", run.HW, 8}, {"Track", run.SW, 16},
	}
	inUse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a second cycle empties the sync.Pool victim caches
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var heap [13]uint64
	for pass := 1; pass <= 12; pass++ {
		h := harness.New(harness.Quick)
		for _, c := range cells {
			if r := h.Result(c.loop, c.mode, c.procs); r.Cycles == 0 {
				t.Fatalf("%s %v: no cycles", c.loop, c.mode)
			}
		}
		heap[pass] = inUse()
	}
	t.Logf("HeapInuse after a forced GC: pass 2 %d B, pass 12 %d B", heap[2], heap[12])
	if float64(heap[12]) > 1.05*float64(heap[2]) {
		t.Errorf("live heap grew across passes: pass 2 %d B, pass 12 %d B (over 5%%)", heap[2], heap[12])
	}
}
