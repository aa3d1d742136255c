package run

import (
	"reflect"
	"strings"
	"testing"

	"specrt/internal/directory"
	"specrt/internal/interconnect"
	"specrt/internal/mem"
	"specrt/internal/policy"
	"specrt/internal/sched"
)

// TestCanonicalCoversAllFields pins the field count Canonical was
// written against: adding a Config field without teaching Canonical
// about it would silently alias distinct configs to one cache key.
func TestCanonicalCoversAllFields(t *testing.T) {
	n := reflect.TypeOf(Config{}).NumField()
	if n != canonFieldCount {
		t.Fatalf("Config has %d fields but canon.go covers %d: update Canonical (and its flip test) for the new field", n, canonFieldCount)
	}
}

// TestHashEquivalentConfigs: configurations that the simulator treats
// identically must share one hash — the zero value and the same config
// with every default spelled out explicitly.
func TestHashEquivalentConfigs(t *testing.T) {
	base := Config{Procs: 8, Mode: HW}
	explicit := Config{
		Procs:             8,
		Mode:              HW,
		HomeOccMultiplier: 1,              // 0 means 1x
		L1Bytes:           DefaultL1Bytes, // 0 means the §5.1 default
		L2Bytes:           DefaultL2Bytes, // "
		Topology:          interconnect.Ideal,
		Placement:         mem.RoundRobin,
		DirMode:           directory.FullMap,
	}
	if base.Hash() != explicit.Hash() {
		t.Fatalf("explicit defaults changed the hash:\n%s\nvs\n%s", base.Canonical(), explicit.Canonical())
	}
	if base.Canonical() != explicit.Canonical() {
		t.Fatalf("explicit defaults changed the canonical form")
	}
	// The hash is specrtd's cache key: a change to Canonical changes
	// every key, so it is pinned here and named when it moves.
	if h, want := base.Hash(), "18b87f90ad21d17a59bc873a92293865d2b7efd685f615e63bb957f3376b6e0c"; h != want {
		t.Fatalf("Hash = %s, want %s:\n%s", h, want, base.Canonical())
	}
}

// TestHashFieldFlips: flipping any single field must change the hash.
// One mutator per Config field (MeshW/MeshH flip together and alone).
func TestHashFieldFlips(t *testing.T) {
	base := Config{Procs: 8, Mode: HW}
	dyn := &sched.Config{Kind: sched.Dynamic, Chunk: 4}
	flips := map[string]func(*Config){
		"Procs":             func(c *Config) { c.Procs = 16 },
		"Mode":              func(c *Config) { c.Mode = SW },
		"Contention":        func(c *Config) { c.Contention = true },
		"SchedOverride":     func(c *Config) { c.SchedOverride = dyn },
		"MaxExecutions":     func(c *Config) { c.MaxExecutions = 3 },
		"LineGrainBits":     func(c *Config) { c.LineGrainBits = true },
		"EpochIters":        func(c *Config) { c.EpochIters = 64 },
		"StallWrites":       func(c *Config) { c.StallWrites = true },
		"HomeOccMultiplier": func(c *Config) { c.HomeOccMultiplier = 4 },
		"AdaptiveAfter":     func(c *Config) { c.AdaptiveAfter = 2 },
		"CheckInvariants":   func(c *Config) { c.CheckInvariants = true },
		"Topology":          func(c *Config) { c.Topology = interconnect.Mesh },
		"Placement":         func(c *Config) { c.Placement = mem.Blocked },
		"DirMode":           func(c *Config) { c.DirMode = directory.Coarse },
		"MeshW":             func(c *Config) { c.MeshW, c.MeshH = 4, 2 },
		"MeshH":             func(c *Config) { c.MeshW, c.MeshH = 2, 4 },
		"L1Bytes":           func(c *Config) { c.L1Bytes = 8 * 1024 },
		"L2Bytes":           func(c *Config) { c.L2Bytes = 64 * 1024 },
		"Policy":            func(c *Config) { c.Policy = policy.Adaptive },
		"Director":          func(c *Config) { c.Policy = policy.Adaptive; c.Director = policy.Threshold },
	}
	if len(flips) != canonFieldCount {
		t.Fatalf("flip table covers %d fields, Config has %d", len(flips), canonFieldCount)
	}
	baseHash := base.Hash()
	seen := map[string]string{baseHash: "base"}
	for name, flip := range flips {
		c := base
		flip(&c)
		h := c.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("flipping %s collides with %s (hash %s)", name, prev, h)
			continue
		}
		seen[h] = name
	}
	// Chunk is part of the schedule spelling too.
	c := base
	c.SchedOverride = &sched.Config{Kind: sched.Dynamic, Chunk: 8}
	if h := c.Hash(); seen[h] != "" && seen[h] != "SchedOverride-chunk8" {
		if _, dup := seen[h]; dup {
			t.Errorf("changing SchedOverride.Chunk did not change the hash")
		}
	}
}

// TestCanonicalShape: sorted keys, one line per rendered field, and the
// MarshalText form matches Canonical byte-for-byte.
func TestCanonicalShape(t *testing.T) {
	c := Config{Procs: 4, Mode: SW, Contention: true, MeshW: 2, MeshH: 2, Topology: interconnect.Mesh}
	s := c.Canonical()
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) != canonFieldCount-1 { // MeshW+MeshH fold into one mesh= line
		t.Fatalf("canonical form has %d lines, want %d:\n%s", len(lines), canonFieldCount-1, s)
	}
	var prevKey string
	for _, ln := range lines {
		key, _, ok := strings.Cut(ln, "=")
		if !ok {
			t.Fatalf("line %q is not key=value", ln)
		}
		if key <= prevKey {
			t.Fatalf("keys not strictly sorted: %q after %q", key, prevKey)
		}
		prevKey = key
	}
	txt, err := c.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if string(txt) != s {
		t.Fatalf("MarshalText differs from Canonical")
	}
	if want := "mesh=2x2"; !strings.Contains(s, want) {
		t.Fatalf("shaped mesh not rendered: want %s in\n%s", want, s)
	}
	if len(c.Hash()) != 64 {
		t.Fatalf("Hash is not hex SHA-256: %q", c.Hash())
	}
}

// TestExecuteWithProgress: the hook sees monotonic (done, total) pairs
// ending at (total, total), and attaching it leaves results identical.
func TestExecuteWithProgress(t *testing.T) {
	w := testWorkload(6)
	cfg := Config{Procs: 2, Mode: Ideal}
	var calls [][2]int
	r1, err := ExecuteWithProgress(w, cfg, func(done, total int) {
		calls = append(calls, [2]int{done, total})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != w.Executions+1 {
		t.Fatalf("got %d progress calls, want %d", len(calls), w.Executions+1)
	}
	for i, c := range calls {
		if c[0] != i || c[1] != w.Executions {
			t.Fatalf("call %d reported (%d,%d), want (%d,%d)", i, c[0], c[1], i, w.Executions)
		}
	}
	r2 := MustExecute(w, cfg)
	if r1.Cycles != r2.Cycles || r1.Executions != r2.Executions {
		t.Fatalf("progress hook changed the simulation: %d/%d vs %d/%d cycles/execs",
			r1.Cycles, r1.Executions, r2.Cycles, r2.Executions)
	}
}

// testWorkload is a tiny deterministic doall for progress tests.
func testWorkload(execs int) *Workload {
	return &Workload{
		Name:       "canon-test",
		Executions: execs,
		Iterations: func(int) int { return 8 },
		Arrays: []ArraySpec{
			{Name: "A", Elems: 64, ElemSize: 8},
		},
		Body: func(exec, iter int, c *Ctx) {
			c.Compute(4)
			c.Load(0, iter)
			c.Store(0, iter)
		},
	}
}
