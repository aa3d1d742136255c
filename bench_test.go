package specrt_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the corresponding experiment at Quick scale),
// the ablations, and micro-benchmarks of the library's hot paths. Run
// with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks measure the cost of regenerating the experiment;
// the experiment results themselves are printed by cmd/specrt and
// recorded in EXPERIMENTS.md.

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"specrt"

	"specrt/internal/cache"
	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/directory"
	"specrt/internal/harness"
	"specrt/internal/interconnect"
	"specrt/internal/lrpd"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/run"
	"specrt/internal/server"
	"specrt/internal/sim"
)

// ----- Table §5.1 -----

func BenchmarkTableLatencies(b *testing.B) {
	specrt.MeasureLatencies() // warm the metadata pools so -benchtime=1x measures steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := specrt.MeasureLatencies()
		if rows[0].Measured != 1 {
			b.Fatal("latency probe wrong")
		}
	}
}

// ----- Figure 11: loop speedups -----

func benchLoopMode(b *testing.B, name string, mode run.Mode) {
	b.Helper()
	h := harness.New(harness.Quick)
	procs := 16
	if name == "Ocean" {
		procs = 8
	}
	if mode == run.Serial {
		procs = 1
	}
	// One untimed op warms the arena/slab pools so -benchtime=1x (the CI
	// setting) measures the steady state rather than first-run growth.
	harness.New(h.Scale).Result(name, mode, procs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh := harness.New(h.Scale)
		r := hh.Result(name, mode, procs)
		if r.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

func BenchmarkFig11OceanHW(b *testing.B) { benchLoopMode(b, "Ocean", run.HW) }
func BenchmarkFig11OceanSW(b *testing.B) { benchLoopMode(b, "Ocean", run.SW) }
func BenchmarkFig11P3mHW(b *testing.B)   { benchLoopMode(b, "P3m", run.HW) }
func BenchmarkFig11P3mSW(b *testing.B)   { benchLoopMode(b, "P3m", run.SW) }
func BenchmarkFig11AdmHW(b *testing.B)   { benchLoopMode(b, "Adm", run.HW) }
func BenchmarkFig11AdmSW(b *testing.B)   { benchLoopMode(b, "Adm", run.SW) }
func BenchmarkFig11TrackHW(b *testing.B) { benchLoopMode(b, "Track", run.HW) }
func BenchmarkFig11TrackSW(b *testing.B) { benchLoopMode(b, "Track", run.SW) }

func BenchmarkFig11Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.New(harness.Quick).Fig11()
		if len(res.Rows) != 4 {
			b.Fatal("bad figure")
		}
	}
}

// ----- Figure 12: breakdowns -----

func BenchmarkFig12Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.New(harness.Quick).Fig12()
		if len(res.Bars) != 16 {
			b.Fatal("bad figure")
		}
	}
}

// ----- Figure 13: forced failures -----

func BenchmarkFig13Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.New(harness.Quick).Fig13()
		if len(res.Rows) != 4 {
			b.Fatal("bad figure")
		}
	}
}

// ----- Figure 14: scalability -----

func BenchmarkFig14Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.New(harness.Quick).Fig14()
		if len(res.Series) != 3 {
			b.Fatal("bad figure")
		}
	}
}

// ----- Full figure-set regeneration: sequential vs parallel -----

// benchFigureSet regenerates the §5.1 table and Figures 11-14 (the full
// multi-cell experiment set) with the given worker-pool size. Comparing
// the two benchmarks shows the wall-clock win of the parallel executor;
// on a >= 4-core host the parallel run is expected to be >= 2x faster.
func benchFigureSet(b *testing.B, par int) {
	b.Helper()
	b.ReportMetric(float64(runtime.NumCPU()), "hostcores")
	for i := 0; i < b.N; i++ {
		h := harness.NewParallel(harness.Quick, par)
		h.All(io.Discard)
	}
}

func BenchmarkFigureSetSequential(b *testing.B) { benchFigureSet(b, 1) }
func BenchmarkFigureSetParallel(b *testing.B)   { benchFigureSet(b, 0) }

// ----- Ablations -----

func BenchmarkAblationTrackChunks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationTrackChunks()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblationBitGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationBitGranularity()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblationReadIn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationReadIn()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

// ----- Library micro-benchmarks -----

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func() {})
		e.Step()
	}
}

func benchMachine(procs int) *machine.Machine {
	cfg := machine.DefaultConfig(procs)
	cfg.Contention = true
	return machine.MustNew(cfg)
}

func BenchmarkPlainReadHit(b *testing.B) {
	m := benchMachine(2)
	r := m.Space.Alloc("A", 1024, 4, mem.Local, 0)
	m.Read(0, r.ElemAddr(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(0, r.ElemAddr(0))
	}
}

func BenchmarkPlainReadMissRemote(b *testing.B) {
	m := benchMachine(2)
	r := m.Space.Alloc("A", 1<<20, 4, mem.Local, 1)
	// One remote miss to a line outside the timed sequence performs the
	// machine's one-time lazy setup (home queue ring, directory table),
	// so even a single timed iteration measures only a steady-state miss.
	warm := m.Space.Alloc("W", 16, 4, mem.Local, 1)
	m.Read(0, warm.ElemAddr(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(0, r.ElemAddr((i*16)%(1<<20)))
	}
}

// BenchmarkDirTxn1024Spill is one directory transaction round at 1024
// processors with a full-map directory: every processor reads the same
// line, so its sharer set outgrows the inline word and spills to slabs,
// then processor 0 writes it and 1023 invalidations go through
// takeProcLine. Caches are the wide cells' 8 KB / 64 KB; contention is
// off so the op measures directory and cache work, not home queueing.
// The write drops the spilled set, which frees its window for the next
// round's spill, so the op allocates nothing in steady state.
func BenchmarkDirTxn1024Spill(b *testing.B) {
	const procs = 1024
	cfg := machine.DefaultConfig(procs)
	cfg.L1.SizeBytes, cfg.L2.SizeBytes = 8*1024, 64*1024
	cfg.DirMode = directory.FullMap
	cfg.Contention = false
	m := machine.MustNew(cfg)
	defer m.Release()
	a := m.Space.Alloc("A", 16, 4, mem.Local, 0).ElemAddr(0)
	round := func() {
		for p := 0; p < procs; p++ {
			m.Read(p, a)
		}
		m.Write(0, a)
	}
	round() // first spill grows the window store outside the timed loop
	before := m.Stats.Invalidations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if got := m.Stats.Invalidations - before; got != uint64(b.N)*(procs-1) {
		b.Fatalf("invalidations = %d, want %d", got, uint64(b.N)*(procs-1))
	}
}

// fanoutHits keeps BenchmarkL2ProbeFanout4096's lookups live.
var fanoutHits int

// BenchmarkL2ProbeFanout4096 is the cache-probe layer under the widest
// invalidation fan-out: one machine at directory.MaxProcs with the wide
// cells' 8 KB / 64 KB caches and one line resident in every L2. An op
// looks that line up in each processor's L2 in processor order, as a
// write's invalidations visit the sharers: one frame of each of 4096
// caches, the same set of each, which the set-major frame blocks store
// side by side for 64 caches at a time. The op measures host-memory
// reach into the frames, not the directory.
func BenchmarkL2ProbeFanout4096(b *testing.B) {
	const procs = directory.MaxProcs
	cfg := machine.DefaultConfig(procs)
	cfg.L1.SizeBytes, cfg.L2.SizeBytes = 8*1024, 64*1024
	cfg.Contention = false
	m := machine.MustNew(cfg)
	defer m.Release()
	a := m.Space.Alloc("A", 16, 4, mem.Local, 0).ElemAddr(0)
	for p := 0; p < procs; p++ {
		m.Read(p, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, pr := range m.Procs {
			if pr.L2.Lookup(a) != nil {
				hits++
			}
		}
		fanoutHits = hits
	}
	b.StopTimer()
	if fanoutHits != procs {
		b.Fatalf("line resident in %d L2s, want %d", fanoutHits, procs)
	}
}

// BenchmarkLockstepRound4096 is the processor-step layer of the wide
// cells: one round in which each of directory.MaxProcs processors steps
// one load through cpu.System and the engine, all due in the same cycle.
// Every load is an L1 hit on one read-shared line, as the hot loop's
// loads of its hot lines are (8 KB / 64 KB caches, plain protocol), so
// the op measures engine dispatch, the step and the L1 probe of 4096
// caches, and allocates nothing.
func BenchmarkLockstepRound4096(b *testing.B) {
	const procs = directory.MaxProcs
	cfg := machine.DefaultConfig(procs)
	cfg.L1.SizeBytes, cfg.L2.SizeBytes = 8*1024, 64*1024
	m := machine.MustNew(cfg)
	defer m.Release()
	s := cpu.NewSystem(m, nil)
	load := []cpu.Instr{cpu.Load(m.Space.Alloc("A", 16, 4, mem.Local, 0).ElemAddr(0))}
	served := make([]bool, procs)
	src := func(p *cpu.Proc) []cpu.Instr {
		if served[p.ID] {
			return nil
		}
		served[p.ID] = true
		return load
	}
	ids := make([]int, procs)
	srcs := make([]cpu.Source, procs)
	for p := range ids {
		ids[p], srcs[p] = p, src
	}
	round := func() {
		clear(served)
		s.Run(ids, srcs)
	}
	round() // the first round's misses fill every L1
	// Rounds walk the clock through the engine's wheel, whose buckets
	// (256 of one cycle, then 64 of 256 cycles) each grow on first use;
	// give every bucket room for a round up front.
	noop := func() {}
	fill := func(t sim.Time) {
		for range procs {
			m.Eng.At(t, noop)
		}
	}
	for d := range sim.Time(256) {
		fill(m.Eng.Now() + d)
	}
	m.Eng.Run()
	for range 64 {
		fill(m.Eng.Now() + 256)
		m.Eng.Run()
	}
	hits := m.Stats.L1Hits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if got := m.Stats.L1Hits - hits; got != uint64(b.N)*procs {
		b.Fatalf("L1 hits = %d, want %d", got, uint64(b.N)*procs)
	}
}

// BenchmarkCacheFlushSparse refills an 8192-set L2 with 64 scattered
// lines (every fourth one dirty) and flushes it, once per op: the
// between-executions flush of a mostly empty cache.
func BenchmarkCacheFlushSparse(b *testing.B) {
	c := cache.New(cache.Config{SizeBytes: 512 * 1024, LineBytes: 64})
	defer c.Release()
	wb := 0
	onDirty := func(cache.Line) { wb++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			st := cache.Clean
			if j%4 == 0 {
				st = cache.Dirty
			}
			c.Install(mem.Addr(j*4093*64), st, nil) // 4093 is prime: scattered sets
		}
		c.FlushAll(onDirty)
	}
	b.StopTimer()
	if wb != 16*b.N {
		b.Fatalf("writebacks = %d, want %d", wb, 16*b.N)
	}
}

func BenchmarkNonPrivReadHit(b *testing.B) {
	m := benchMachine(2)
	c := core.NewController(m)
	r := m.Space.Alloc("A", 1024, 4, mem.RoundRobin, 0)
	c.AddNonPriv(r)
	c.Arm()
	c.Read(0, r.ElemAddr(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(0, r.ElemAddr(0))
	}
}

// BenchmarkNonPrivReadHitStamped is BenchmarkNonPrivReadHit the way a
// processor runs it: loads stamped with their array slot and element,
// stepped through cpu.System and the engine, in batches of 256.
func BenchmarkNonPrivReadHitStamped(b *testing.B) {
	m := benchMachine(2)
	c := core.NewController(m)
	r := m.Space.Alloc("A", 1024, 4, mem.RoundRobin, 0)
	arr := c.AddNonPriv(r)
	c.Arm()
	s := cpu.NewSystem(m, c)
	batch := make([]cpu.Instr, 256)
	for i := range batch {
		batch[i] = cpu.LoadElem(r.ElemAddr(0), arr.Slot(), 0)
	}
	left := 0
	src := func(*cpu.Proc) []cpu.Instr {
		n := min(left, len(batch))
		left -= n
		return batch[:n]
	}
	run := func(n int) {
		left = n
		s.Run([]int{0}, []cpu.Source{src})
	}
	run(1)
	hits := m.Stats.L1Hits
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if got := m.Stats.L1Hits - hits; got != uint64(b.N) {
		b.Fatalf("L1 hits = %d, want %d", got, b.N)
	}
}

func BenchmarkNonPrivWriteMiss(b *testing.B) {
	m := benchMachine(2)
	c := core.NewController(m)
	r := m.Space.Alloc("A", 1<<20, 4, mem.RoundRobin, 0)
	c.AddNonPriv(r)
	c.Arm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(0, r.ElemAddr((i*16)%(1<<20))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrivReadWrite(b *testing.B) {
	m := benchMachine(2)
	c := core.NewController(m)
	r := m.Space.Alloc("A", 4096, 4, mem.RoundRobin, 0)
	c.AddPriv(r, core.PrivCopies(m.Space, r, m.Cfg.Procs), true)
	c.Arm()
	c.BeginIteration(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % 4096
		if _, err := c.Write(0, r.ElemAddr(e)); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(0, r.ElemAddr(e)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRPDMarkAnalyze(b *testing.B) {
	ops := make([]lrpd.Op, 0, 4096)
	for i := 0; i < 1024; i++ {
		ops = append(ops,
			lrpd.Op{Iter: i, Elem: i % 512, Write: true},
			lrpd.Op{Iter: i, Elem: i % 512},
			lrpd.Op{Iter: i, Elem: (i + 7) % 512},
			lrpd.Op{Iter: i, Elem: (i + 13) % 512, Write: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := lrpd.TestWithReadIn(512, ops)
		_ = res
	}
}

// BenchmarkValidateP3mPaper4096 is the admission check a service runs
// before every job: P3m at paper scale under SW on directory.MaxProcs
// processors, the largest layout a paper loop asks for.
func BenchmarkValidateP3mPaper4096(b *testing.B) {
	w, cfg, err := harness.ResolveJob(harness.JobSpec{Workload: "P3m",
		Config: run.Config{Mode: run.SW, Procs: directory.MaxProcs}}, harness.Paper)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Validate(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeculativeDoAllParallelLoop(b *testing.B) {
	data := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := specrt.SpeculativeDoAll(data, 4096, 4, func(j int, v *specrt.View[float64]) {
			v.Write(j, v.Read(j)+1)
		})
		if out.Reexecuted {
			b.Fatal("parallel loop reexecuted")
		}
	}
}

func BenchmarkWorkloadSimulationThroughput(b *testing.B) {
	// Cycles simulated per wall second for a representative HW run.
	w := harness.New(harness.Quick)
	_ = w
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		r := run.MustExecute(pickAdm(), run.Config{
			Procs: 16, Mode: run.HW, Contention: true, MaxExecutions: 1,
		})
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
}

func pickAdm() *run.Workload {
	for _, w := range specrt.PaperLoops() {
		if w.Name == "Adm" {
			return w
		}
	}
	panic("no Adm")
}

// ----- Feature benchmarks (extensions beyond the figures) -----

func BenchmarkServerSubmitCached(b *testing.B) {
	// The specrtd hot path: a duplicate submission served synchronously
	// from the content-hash cache — JSON decode, canonicalize, SHA-256,
	// LRU lookup. No simulation runs inside the timed loop.
	srv := server.New(server.Options{Scale: harness.Quick})
	h := srv.Handler()
	const body = `{"workload":"Track","mode":"hw","procs":4}`
	submit := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		req.Header.Set("X-Tenant", "bench")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := submit()
	var sub server.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatal(err)
	}
	for { // wait for the one real simulation to land in the cache
		req := httptest.NewRequest("GET", "/v1/jobs/"+sub.ID, nil)
		st := httptest.NewRecorder()
		h.ServeHTTP(st, req)
		var status server.StatusResponse
		if err := json.Unmarshal(st.Body.Bytes(), &status); err != nil {
			b.Fatal(err)
		}
		if status.Status == "done" {
			break
		}
		if status.Status == "failed" {
			b.Fatalf("warm-up job failed: %s", status.Error)
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := submit()
		if rec.Code != 200 {
			b.Fatalf("cached submit: status %d, want 200", rec.Code)
		}
	}
}

func BenchmarkEpochSynchronization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationEpochs()
		if rows[0].Failures != 0 {
			b.Fatal("epoch ablation failed")
		}
	}
}

func BenchmarkSparseBackup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationSparseBackup()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkStateCosts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := specrt.StateCosts(16, 1<<16, true)
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkTraceParse(b *testing.B) {
	doc := `{"arrays": [{"name":"A","elems":64,"elemSize":4,"test":"nonpriv"}],
	         "iterations": [[{"op":"compute","cycles":10},{"op":"store","array":0,"elem":3}]]}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := specrt.ParseTrace(strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationAdaptive()
		if len(rows) != 4 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblationAdaptiveDirectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationDirectors(0)
		if len(rows) != 24 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblationWriteStall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationWriteStall()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblationDirectoryOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationDirectoryOccupancy()
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblationPrivGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationPrivGranularity()
		if len(rows) != 4 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkAblationMeshContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationMeshContention()
		if len(rows) != 4 {
			b.Fatal("bad rows")
		}
	}
}

// ----- Wide-scale ablation (multi-word sharer sets, coarse directory) -----

// benchWideCell measures one wide-scale cell. One untimed run warms the
// arena/slab pools so -benchtime=1x (the CI setting) measures steady
// state rather than first-run growth; these cells are the committed
// budget for the 256-1024 processor configurations. Each op uses a
// fresh harness, because a harness memoizes its paper-loop cells.
func benchWideCell(b *testing.B, workload string, procs int, dir directory.Mode, topo interconnect.Kind) {
	b.Helper()
	harness.New(harness.Quick).WideCell(workload, procs, dir, topo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.New(harness.Quick).WideCell(workload, procs, dir, topo)
		if r.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

func BenchmarkAblationWideOcean1024Mesh(b *testing.B) {
	benchWideCell(b, "Ocean", 1024, directory.FullMap, interconnect.Mesh)
}

func BenchmarkAblationWideOcean1024Coarse(b *testing.B) {
	benchWideCell(b, "Ocean", 1024, directory.Coarse, interconnect.Mesh)
}

func BenchmarkAblationWideGen1024Mesh(b *testing.B) {
	benchWideCell(b, "gen", 1024, directory.FullMap, interconnect.Mesh)
}

func BenchmarkAblationWideLadder(b *testing.B) {
	// The 64- and 256-processor rungs of the full grid (2 workloads x
	// 2 directory modes x 2 topologies per rung).
	harness.New(harness.Quick).AblationWide(harness.WideProcsUpTo(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := harness.New(harness.Quick).AblationWide(harness.WideProcsUpTo(256))
		if len(rows) != 16 {
			b.Fatal("bad rows")
		}
	}
}
