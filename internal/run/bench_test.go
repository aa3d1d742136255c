package run_test

import (
	"testing"

	"specrt/internal/loops"
	"specrt/internal/run"
)

// BenchmarkSessionBackupRestore is the session backup/restore layer:
// each op runs one backup phase and one restore phase of Track's four
// non-privatized arrays on a 16-processor HW session, streamed from the
// per-processor phase generators through the processors and caches.
// The warm-up sizes the session's buffers and walks the clock through
// the engine's timing wheel. What an op still allocates is wheel
// buckets (sim.Engine.At's appends) that first reach a new occupancy:
// the 17th pair, the one a -benchtime=1x run times, grows two of them
// (768 B). The simulation is deterministic, so that count is the same
// on every run and at any GOGC; it moves only with the warm-up depth or
// the simulated schedule. The session is released outside the timed
// region, since Machine.Release puts cache blocks into a sync.Pool,
// which allocates again after a GC has emptied it.
func BenchmarkSessionBackupRestore(b *testing.B) {
	phases, release := run.BackupRestore(loops.Track(), run.Config{Procs: 16, Mode: run.HW, Contention: true})
	b.Cleanup(release)
	for range 16 {
		phases()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		phases()
	}
}
