package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/harness"
	"specrt/internal/interconnect"
	"specrt/internal/loops"
	"specrt/internal/run"
	"specrt/internal/sched"
	"specrt/internal/sim"
)

const (
	defaultSeed = 1      // the seed of a run that names none
	heldOutSeed = 104729 // kept aside for checking performance claims
	digestSeeds = 128    // digests.txt covers loop seeds [0, digestSeeds) and heldOutSeed

	wideExecs = 8  // executions of the generated loop per cell
	hotLines  = 64 // cache lines every processor reads
)

// digestTable holds "cell seed sha256" lines: the encoded report digest
// of every wide cell for the covered seeds ("-" for the seedless Ocean
// cell). Regenerate with -write-digests only when the simulated timing
// model changes on purpose.
//
//go:embed digests.txt
var digestTable string

// splitmix is a small deterministic generator (stable across Go
// versions, unlike relying on math/rand's stream).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// hotLoop generates the wide workload's loop from the seed. Every
// iteration reads one of 64 hot lines shared machine-wide and updates
// its own element of a nonprivatized array, so speculation always
// passes; one access in 61 also stores to its hot line, a plain write
// whose invalidation fans out to every current sharer. The seed fixes
// which line each iteration reads, where the stores fall and how long
// each iteration computes; the mix is the same for every seed. Two
// iterations per processor in chunks of four keep half the processors
// busy in each of the executions.
func hotLoop(seed uint64, procs int) *run.Workload {
	iters := 2 * procs
	n := wideExecs * iters
	rng := splitmix{seed}
	line := make([]uint8, n)
	comp := make([]uint8, n)
	for k := range line {
		line[k] = uint8(rng.intn(hotLines))
		comp[k] = uint8(15 + rng.intn(21))
	}
	store := make([]bool, n)
	perm := make([]int32, n)
	for k := range perm {
		perm[k] = int32(k)
	}
	for i := 0; i < n/61; i++ {
		j := i + rng.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		store[perm[i]] = true
	}
	return &run.Workload{
		Name:       fmt.Sprintf("hot-%d-seed%d", procs, seed),
		Executions: wideExecs,
		Iterations: func(int) int { return iters },
		Arrays: []run.ArraySpec{
			{Name: "A", Elems: iters, ElemSize: 16, Test: core.NonPriv},
			// 4 16-byte elements per 64-byte line: element 4k is line k.
			{Name: "HOT", Elems: 4 * hotLines, ElemSize: 16, Test: core.Plain},
		},
		Body: func(exec, iter int, c *run.Ctx) {
			k := exec*iters + iter
			hot := 4 * int(line[k])
			c.Load(1, hot)
			if store[k] {
				c.Store(1, hot)
			}
			c.Load(0, iter)
			c.Compute(sim.Time(comp[k]))
			c.Store(0, iter)
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 4},
	}
}

// wideCell is one HW simulation of the wide workload.
type wideCell struct {
	name string
	w    *run.Workload
	cfg  run.Config
}

// wideCells builds the cell set: the 1024-processor Ocean cell with the
// config harness.WideCell builds, and the generated loop at
// directory.MaxProcs under both directory modes. All run on the auto
// square mesh with the wide ablation's 8 KB / 64 KB caches.
func wideCells(seed uint64) []wideCell {
	base := run.Config{
		Mode: run.HW, Contention: true, Topology: interconnect.Mesh,
		L1Bytes: 8 << 10, L2Bytes: 64 << 10,
	}
	ocean := base
	ocean.Procs, ocean.DirMode, ocean.MaxExecutions = 1024, directory.FullMap, 1
	full := base
	full.Procs, full.DirMode = directory.MaxProcs, directory.FullMap
	coarse := full
	coarse.DirMode = directory.Coarse
	gen := hotLoop(seed, directory.MaxProcs)
	return []wideCell{
		{"ocean-1024", loops.Ocean(), ocean},
		{"hot-4096-fullmap", gen, full},
		{"hot-4096-coarse", gen, coarse},
	}
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// cellDigest executes a cell and digests its encoded report.
func cellDigest(c wideCell) (string, error) {
	r, err := run.Execute(c.w, c.cfg)
	if err != nil {
		return "", err
	}
	b, err := encode(r)
	return digest(b), err
}

// storedDigests parses digests.txt into "cell seed" → digest.
func storedDigests() (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(digestTable))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("digests.txt: bad line %q", sc.Text())
		}
		out[f[0]+" "+f[1]] = f[2]
	}
	return out, sc.Err()
}

// digestKey is a cell's "cell seed" key in digests.txt; the Ocean cell
// does not depend on the seed and is stored under "-".
func digestKey(c wideCell, seed uint64) string {
	if c.name == "ocean-1024" {
		return c.name + " -"
	}
	return c.name + " " + strconv.FormatUint(seed, 10)
}

// writeDigestTable regenerates digests.txt.
func writeDigestTable(path string) error {
	var sb strings.Builder
	sb.WriteString("# Encoded-report SHA-256 of each wide cell: cell seed digest.\n")
	sb.WriteString("# Regenerate: go run . -write-digests digests.txt (in perfbench/).\n")
	seeds := []uint64{heldOutSeed}
	for s := uint64(0); s < digestSeeds; s++ {
		seeds = append(seeds, s)
	}
	for i, seed := range seeds {
		cells := wideCells(seed)
		if i > 0 {
			cells = cells[1:] // the seedless Ocean cell is written once
		}
		for _, c := range cells {
			d, err := cellDigest(c)
			if err != nil {
				return err
			}
			fmt.Fprintf(&sb, "%s %s\n", digestKey(c, seed), d)
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// loopSeed maps a run's seed onto the loop seeds digests.txt covers: the
// held-out seed is its own entry, and every other seed folds onto
// [0, digestSeeds).
func loopSeed(seed uint64) uint64 {
	if seed == heldOutSeed {
		return seed
	}
	return seed % digestSeeds
}

// runWide times the wide cell set. Set-up generates the loop and runs
// each cell once, untimed by the passes; every pass then runs all three
// cells and checks each encoded report against its stored digest.
func runWide(b *bench) error {
	table, err := storedDigests()
	if err != nil {
		return err
	}
	seed := loopSeed(b.seed)
	b.info["workers"], b.info["loop_seed"] = 1, seed
	var cells []wideCell
	var setupDigests [][]string
	err = b.setup(func(int) error {
		cells = wideCells(seed)
		var ds []string
		for _, c := range cells {
			d, err := cellDigest(c)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		setupDigests = append(setupDigests, ds)
		return nil
	})
	if err != nil {
		return err
	}

	want := make([]string, len(cells))
	for i, c := range cells {
		d, ok := table[digestKey(c, seed)]
		if !ok {
			return fmt.Errorf("digests.txt has no %s entry", digestKey(c, seed))
		}
		want[i] = d
		for _, ds := range setupDigests {
			b.check(ds[i] == want[i], "set-up %s report digest %s, want %s", c.name, ds[i], want[i])
		}
	}
	// The Ocean cell must be the one harness.WideCell simulates.
	row := harness.NewParallel(harness.Default, 1).WideCell("Ocean", 1024, directory.FullMap, interconnect.Mesh)
	ocean, err := run.Execute(cells[0].w, cells[0].cfg)
	if err != nil {
		return err
	}
	b.check(row.Cycles == ocean.Cycles && row.Invals == ocean.MachineStats.Invalidations,
		"ocean-1024 config differs from harness.WideCell (cycles %d vs %d)", ocean.Cycles, row.Cycles)

	rec := newLayerRecorder(b)
	for _, c := range cells {
		if err := rec.admission(c.w, c.cfg); err != nil {
			return err
		}
	}
	secs, _, err := b.passes(20, func(i, span int) error {
		for j, c := range cells {
			cell := b.tr.start("wide."+c.name, span, 0)
			var e execution
			var err error
			b.tr.do("run.execute", cell, func() { e, err = execute(c.w, c.cfg) })
			if err != nil {
				return err
			}
			var got []byte
			b.tr.do("stats.encode", cell, func() { got, err = rec.encoded(e.res) })
			if err != nil {
				return err
			}
			b.tr.end(cell)
			b.check(digest(got) == want[j], "pass %d %s report digest differs", i, c.name)
			rec.timed(e, i)
			if i == 0 {
				rec.counts(e.res)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.recordPasses(secs, true)
	rec.finish()
	return nil
}
