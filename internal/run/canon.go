package run

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"specrt/internal/sched"
)

// Canonical serialization of Config. Execute is a deterministic function
// of (workload, Config), which makes a canonical rendering of Config the
// natural content-address for memoized results: two configs that
// simulate identically must serialize identically, and any semantic
// difference must change the bytes. The server's result cache
// (internal/server) and the harness job runner key on Hash, so the rules
// here are load-bearing — they decide when a request is a cache hit.
//
// The rendering is one sorted key=value line per field with defaults
// spelled out explicitly: zero values that the simulator documents as
// "use the default" (HomeOccMultiplier, the cache sizes, the mesh
// auto-shape, a nil SchedOverride) normalize to the default's canonical
// spelling, so Config{} and an explicitly-defaulted config hash equal.
// Fields where zero is its own meaning (MaxExecutions 0 = all
// executions, EpochIters 0 = no epochs) stay raw.

// Default per-processor cache sizes (§5.1) applied when Config.L1Bytes /
// L2Bytes are zero; mirrored from machine.Config so canonicalization can
// fold "0" and "the explicit default" into one cache key.
const (
	DefaultL1Bytes = 32 * 1024
	DefaultL2Bytes = 512 * 1024
)

// canonFieldCount is the number of Config fields Canonical renders. The
// companion test asserts it equals reflect.TypeOf(Config{}).NumField(),
// so adding a Config field without extending Canonical fails the build's
// tests instead of silently aliasing distinct configs to one cache key.
const canonFieldCount = 20

// ModeByName resolves a mode flag or request-body value.
func ModeByName(name string) (Mode, error) {
	switch name {
	case "serial", "Serial":
		return Serial, nil
	case "ideal", "Ideal":
		return Ideal, nil
	case "sw", "SW":
		return SW, nil
	case "hw", "HW":
		return HW, nil
	}
	return Serial, fmt.Errorf("unknown mode %q (serial|ideal|sw|hw)", name)
}

// canonSched renders the schedule selection: a nil override means "the
// workload's preferred schedule for the mode", which is part of the
// workload identity rather than the config, so it canonicalizes to a
// distinguished token instead of a kind/chunk pair.
func canonSched(s *sched.Config) string {
	if s == nil {
		return "workload"
	}
	return fmt.Sprintf("%v:%d", s.Kind, s.Chunk)
}

// Canonical returns the deterministic key=value rendering of c. Every
// field appears exactly once, keys in sorted order, defaults explicit.
func (c Config) Canonical() string {
	homeOcc := c.HomeOccMultiplier
	if homeOcc <= 0 {
		homeOcc = 1 // 0 is documented as "1x occupancy"
	}
	l1, l2 := c.L1Bytes, c.L2Bytes
	if l1 == 0 {
		l1 = DefaultL1Bytes
	}
	if l2 == 0 {
		l2 = DefaultL2Bytes
	}
	mesh := "auto"
	if c.MeshW != 0 || c.MeshH != 0 {
		mesh = fmt.Sprintf("%dx%d", c.MeshW, c.MeshH)
	}
	var b strings.Builder
	b.Grow(256)
	fmt.Fprintf(&b, "adaptive_after=%d\n", c.AdaptiveAfter)
	fmt.Fprintf(&b, "check_invariants=%t\n", c.CheckInvariants)
	fmt.Fprintf(&b, "contention=%t\n", c.Contention)
	fmt.Fprintf(&b, "director=%v\n", c.Director)
	fmt.Fprintf(&b, "dirmode=%v\n", c.DirMode)
	fmt.Fprintf(&b, "epoch_iters=%d\n", c.EpochIters)
	fmt.Fprintf(&b, "home_occ=%d\n", homeOcc)
	fmt.Fprintf(&b, "l1_bytes=%d\n", l1)
	fmt.Fprintf(&b, "l2_bytes=%d\n", l2)
	fmt.Fprintf(&b, "line_grain=%t\n", c.LineGrainBits)
	fmt.Fprintf(&b, "max_executions=%d\n", c.MaxExecutions)
	fmt.Fprintf(&b, "mesh=%s\n", mesh)
	fmt.Fprintf(&b, "mode=%v\n", c.Mode)
	fmt.Fprintf(&b, "placement=%v\n", c.Placement)
	fmt.Fprintf(&b, "policy=%v\n", c.Policy)
	fmt.Fprintf(&b, "procs=%d\n", c.Procs)
	fmt.Fprintf(&b, "sched=%s\n", canonSched(c.SchedOverride))
	fmt.Fprintf(&b, "stall_writes=%t\n", c.StallWrites)
	fmt.Fprintf(&b, "topology=%v\n", c.Topology)
	return b.String()
}

// MarshalText renders the canonical form, so a Config embedded in JSON
// or logs shows the exact bytes its cache key is derived from.
func (c Config) MarshalText() ([]byte, error) {
	return []byte(c.Canonical()), nil
}

// Hash returns the hex SHA-256 of the canonical rendering: the
// content-address of this configuration's simulation results.
func (c Config) Hash() string {
	sum := sha256.Sum256([]byte(c.Canonical()))
	return hex.EncodeToString(sum[:])
}
