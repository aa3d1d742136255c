package main

import (
	"time"

	"specrt/internal/run"
	"specrt/internal/stats"
)

// layerMetrics lists every per-layer metric of a traced run, in the
// order BENCHMARK.json names them. A workload that does not exercise a
// layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	// harness: the figure set, call by call (figures).
	{"harness.latencies_s", "s"},
	{"harness.fig11_s", "s"},
	{"harness.fig12_s", "s"},
	{"harness.fig13_s", "s"},
	{"harness.fig14_s", "s"},
	{"harness.protostats_s", "s"},
	{"harness.statecosts_s", "s"},
	{"harness.ablation.trackchunks_s", "s"},
	{"harness.ablation.contention_s", "s"},
	{"harness.ablation.bitgrain_s", "s"},
	{"harness.ablation.readin_s", "s"},
	{"harness.ablation.epochs_s", "s"},
	{"harness.ablation.sparsebackup_s", "s"},
	{"harness.ablation.privgrain_s", "s"},
	{"harness.ablation.adaptive_s", "s"},
	{"harness.ablation.writestall_s", "s"},
	{"harness.ablation.diroccupancy_s", "s"},
	{"harness.ablation.meshcontention_s", "s"},
	{"harness.cells", "count"},

	// run: host time of executions and admission calls.
	{"run.mode_s.serial", "s"},
	{"run.mode_s.ideal", "s"},
	{"run.mode_s.sw", "s"},
	{"run.mode_s.hw", "s"},
	{"run.execute_s", "s"},
	{"run.exec_ms_p50", "ms"},
	{"run.exec_ms_p90", "ms"},
	{"run.host_ns_per_access", "ns"},
	{"run.hash_us", "us"},
	{"run.validate_us", "us"},
	{"run.failures", "count"},
	{"run.exceptions", "count"},

	// Exact simulated counts, summed over the workload's executions.
	{"sim.cycles", "count"},
	{"cpu.busy_cycles", "count"},
	{"cpu.mem_cycles", "count"},
	{"cpu.sync_cycles", "count"},
	{"machine.reads", "count"},
	{"machine.writes", "count"},
	{"machine.fetch_2hop", "count"},
	{"machine.fetch_3hop", "count"},
	{"machine.upgrades", "count"},
	{"machine.writebacks", "count"},
	{"machine.messages", "count"},
	{"machine.home_requests", "count"},
	{"machine.home_wait_cycles", "count"},
	{"machine.home_max_queue", "count"},
	{"cache.l1_hits", "count"},
	{"cache.l2_hits", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"directory.invalidations", "count"},
	{"directory.invals_per_write", "ratio"},
	{"interconnect.messages", "count"},
	{"interconnect.link_wait_cycles", "count"},
	{"interconnect.link_stalls", "count"},
	{"interconnect.max_link_queue", "count"},
	{"core.nonpriv_accesses", "count"},
	{"core.priv_accesses", "count"},
	{"core.first_updates", "count"},
	{"core.first_update_fails", "count"},
	{"core.read_first_signals", "count"},
	{"core.first_write_signals", "count"},
	{"core.read_ins", "count"},
	{"core.copy_outs", "count"},
	{"core.failures", "count"},
	{"policy.switches", "count"},
	{"policy.mispredicts", "count"},

	// stats: report encoding.
	{"stats.encode_ms", "ms"},

	// server: client-side call times and the server's own counters.
	{"server.submit_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.hit_ms_p50", "ms"},
	{"server.hit_ms_p90", "ms"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.sims", "count"},
	{"server.shed", "count"},
	{"server.failed", "count"},
	{"server.sims_per_unique", "ratio"},

	// Go runtime, per timed pass (heap peak over the whole run).
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},

	// Median traced pass; against the untraced pass_s it gives the
	// tracing overhead.
	{"trace.pass_s", "s"},

	// Host speed (hostspeed.go): the median host factor of the run's
	// kernel samples, and the median pass in plain wall seconds.
	{"host.factor", "ratio"},
	{"host.pass_wall_s", "s"},
}

// execution is one timed run.ExecuteWithProgress call with the host time
// of each loop execution, taken from the progress ticks.
type execution struct {
	res     *run.Result
	host    time.Duration
	execsMS []float64
}

// execute runs one simulation, timing it and each of its executions.
func execute(w *run.Workload, cfg run.Config) (execution, error) {
	var e execution
	start := time.Now()
	last := start
	res, err := run.ExecuteWithProgress(w, cfg, func(done, total int) {
		now := time.Now()
		if done > 0 {
			e.execsMS = append(e.execsMS, float64(now.Sub(last))/1e6)
		}
		last = now
	})
	e.host = time.Since(start)
	e.res = res
	return e, err
}

// encode renders a result's report bytes, as the server does.
func encode(r *run.Result) ([]byte, error) { return stats.ReportOf(r).Encode() }

// layerRecorder accumulates the per-layer metrics of a set of
// executions: exact counts from one set, host times from every round.
type layerRecorder struct {
	b         *bench
	roundHost []float64 // seconds inside ExecuteWithProgress, per round
	execsMS   []float64
	encodeMS  []float64
	hashUS    []float64
	validUS   []float64
	accesses  uint64
	maxQueues [2]int // home queue, link queue
}

func newLayerRecorder(b *bench) *layerRecorder { return &layerRecorder{b: b} }

// timed folds one execution's host times into round's total.
func (l *layerRecorder) timed(e execution, round int) {
	for len(l.roundHost) <= round {
		l.roundHost = append(l.roundHost, 0)
	}
	l.roundHost[round] += e.host.Seconds()
	l.execsMS = append(l.execsMS, e.execsMS...)
}

// counts folds one result's exact simulated counts in.
func (l *layerRecorder) counts(r *run.Result) {
	m := l.b.layer
	ms, cs := r.MachineStats, r.CoreStats
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"run.failures", uint64(r.Failures)},
		{"run.exceptions", uint64(r.Exceptions)},
		{"sim.cycles", uint64(r.Cycles)},
		{"cpu.busy_cycles", uint64(r.Breakdown.Busy)},
		{"cpu.mem_cycles", uint64(r.Breakdown.Mem)},
		{"cpu.sync_cycles", uint64(r.Breakdown.Sync)},
		{"machine.reads", ms.Reads},
		{"machine.writes", ms.Writes},
		{"machine.fetch_2hop", ms.Fetch2Hop},
		{"machine.fetch_3hop", ms.Fetch3Hop},
		{"machine.upgrades", ms.Upgrades},
		{"machine.writebacks", ms.Writebacks},
		{"machine.messages", ms.Messages},
		{"machine.home_requests", r.HomeQueue.Requests},
		{"machine.home_wait_cycles", uint64(r.HomeQueue.WaitCycles)},
		{"cache.l1_hits", ms.L1Hits},
		{"cache.l2_hits", ms.L2Hits},
		{"directory.invalidations", ms.Invalidations},
		{"interconnect.messages", r.NetStats.Messages},
		{"interconnect.link_wait_cycles", uint64(r.NetStats.LinkWait)},
		{"interconnect.link_stalls", r.NetStats.LinkStalls},
		{"core.nonpriv_accesses", cs.NonPrivReads + cs.NonPrivWrites},
		{"core.priv_accesses", cs.PrivReads + cs.PrivWrites},
		{"core.first_updates", cs.FirstUpdates},
		{"core.first_update_fails", cs.FirstUpdateFails},
		{"core.read_first_signals", cs.ReadFirstSignals},
		{"core.first_write_signals", cs.FirstWriteSignals},
		{"core.read_ins", cs.ReadIns},
		{"core.copy_outs", cs.CopyOuts},
		{"core.failures", cs.Failures},
		{"policy.switches", uint64(r.PolicySwitches)},
		{"policy.mispredicts", uint64(r.PolicyMispredicts)},
	} {
		m[c.name] += float64(c.v)
	}
	l.accesses += ms.Reads + ms.Writes
	l.maxQueues[0] = max(l.maxQueues[0], r.HomeQueue.MaxQueueDepth)
	l.maxQueues[1] = max(l.maxQueues[1], r.NetStats.MaxLinkQueue)
}

// admissionReps is how many calls each admission timing averages over.
const admissionReps = 1000

// admission times the per-job calls a server makes before simulating,
// the config's content hash and run.Validate, as the mean of
// admissionReps calls each.
func (l *layerRecorder) admission(w *run.Workload, cfg run.Config) error {
	t := time.Now()
	for i := 0; i < admissionReps; i++ {
		_ = cfg.Hash()
	}
	l.hashUS = append(l.hashUS, float64(time.Since(t))/1e3/admissionReps)
	t = time.Now()
	var err error
	for i := 0; i < admissionReps && err == nil; i++ {
		err = run.Validate(w, cfg)
	}
	l.validUS = append(l.validUS, float64(time.Since(t))/1e3/admissionReps)
	return err
}

// encoded times one report encoding and returns the bytes.
func (l *layerRecorder) encoded(r *run.Result) ([]byte, error) {
	t := time.Now()
	b, err := encode(r)
	l.encodeMS = append(l.encodeMS, float64(time.Since(t))/1e6)
	return b, err
}

// finish writes the derived per-layer metrics: run.execute_s is the
// median round, and host ns per access divides it by one round's
// simulated accesses.
func (l *layerRecorder) finish() {
	m := l.b.layer
	host := quantile(l.roundHost, 0.5)
	m["run.execute_s"] = host
	m["run.exec_ms_p50"] = quantile(l.execsMS, 0.5)
	m["run.exec_ms_p90"] = quantile(l.execsMS, 0.9)
	if l.accesses > 0 {
		m["run.host_ns_per_access"] = host * 1e9 / float64(l.accesses)
		m["cache.l1_hit_ratio"] = m["cache.l1_hits"] / float64(l.accesses)
	}
	if w := m["machine.writes"]; w > 0 {
		m["directory.invals_per_write"] = m["directory.invalidations"] / w
	}
	m["machine.home_max_queue"] = float64(l.maxQueues[0])
	m["interconnect.max_link_queue"] = float64(l.maxQueues[1])
	m["run.hash_us"] = quantile(l.hashUS, 0.5)
	m["run.validate_us"] = quantile(l.validUS, 0.5)
	m["stats.encode_ms"] = quantile(l.encodeMS, 0.5)
}
