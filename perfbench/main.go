// Command perfbench is the repository benchmark. It drives the simulator
// only through the public functions of internal/harness, internal/run,
// internal/stats and internal/server, and measures three workloads:
//
//	figures  regenerate the default-scale report (specrt -scale default all)
//	wide     HW cells on a 2-D mesh at 1024 and 4096 processors
//	service  a closed loop of clients against an in-process specrtd
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/bench.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 a separately traced run carries the per-layer metrics,
// and the spans are written to .bench_build/perfbench/trace/. See
// README.md for the workload rationale and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRuns is how many times every workload sets up within one run;
// setup_s is the median.
const setupRuns = 3

// bench carries one run's settings and accumulates its outcome.
type bench struct {
	seed   uint64
	budget time.Duration
	tr     *tracer
	hm     *hostMeter

	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	info              map[string]any // host and load shape, printed before the result
}

// check counts one operation and whether it produced the right output.
func (b *bench) check(ok bool, what string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", fmt.Sprintf(what, args...))
	}
}

// setup times f setupRuns times and records the median as setup_s, in
// reference seconds (see hostspeed.go). Every set-up, and every pass
// below, starts on a collected heap, as in a fresh process, so the
// garbage one leaves does not tax the next.
func (b *bench) setup(f func(i int) error) error {
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		id := b.tr.start("setup", 0, b.tr.group())
		iv, err := b.hm.time(func() error { return f(i) })
		if err != nil {
			return err
		}
		secs = append(secs, iv.ref)
		b.tr.end(id)
	}
	b.e2e["setup_s"] = quantile(secs, 0.5)
	return nil
}

// passes runs timed passes until the run's budget is spent, at least
// minPasses of them, and returns each pass's time in reference seconds
// and its host factor. Each pass is a span of its own group; pass
// receives that span's id as the parent for its children. maxrss_mb is
// the process's peak resident set once set-up and the first minPasses
// passes are done: a fixed amount of work, however many passes the
// budget then allows. Callers pick minPasses so that it fits the budget
// on a slow host too.
func (b *bench) passes(minPasses int, pass func(i, span int) error) (secs, factors []float64, err error) {
	var before, after runtime.MemStats
	if b.tr.on {
		runtime.ReadMemStats(&before)
	}
	var walls []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < b.budget; i++ {
		id := b.tr.start("pass", 0, b.tr.group())
		iv, err := b.hm.time(func() error { return pass(i, id) })
		if err != nil {
			return nil, nil, err
		}
		b.tr.end(id)
		secs = append(secs, iv.ref)
		walls = append(walls, iv.wall)
		factors = append(factors, iv.factor)
		if i == minPasses-1 {
			mb, err := peakRSS()
			if err != nil {
				return nil, nil, err
			}
			b.e2e["maxrss_mb"] = mb
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: pass wall seconds %.4f\n", walls)
	fmt.Fprintf(os.Stderr, "perfbench: pass host factors %.3f\n", factors)
	b.layer["host.pass_wall_s"] = quantile(walls, 0.5)
	if b.tr.on {
		runtime.ReadMemStats(&after)
		b.runtimeDelta(&before, &after, len(secs))
	}
	return secs, factors, nil
}

// recordPasses sets pass_s from the pass times, plus, for workloads whose
// unit of work is the whole pass, the job percentiles over passes.
func (b *bench) recordPasses(secs []float64, passIsJob bool) {
	b.e2e["pass_s"] = quantile(secs, 0.5)
	b.layer["trace.pass_s"] = quantile(secs, 0.5)
	b.info["passes"] = len(secs)
	fmt.Fprintf(os.Stderr, "perfbench: pass reference seconds %.4f\n", secs)
	if passIsJob {
		ms := scale(secs, 1e3)
		b.e2e["job_ms_p50"] = quantile(ms, 0.5)
		b.e2e["job_ms_p90"] = quantile(ms, 0.9)
		b.info["job_samples"] = len(ms)
	}
}

// peakRSS is the process's resident-set high-water mark so far, in MB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

var workloads = map[string]func(*bench) error{
	"figures": runFigures,
	"wide":    runWide,
	"service": runService,
}

func main() {
	workload := flag.String("workload", "", "workload: figures, wide or service")
	seed := flag.Uint64("seed", defaultSeed, "input seed (wide loop generator, service job mix)")
	seconds := flag.Int("seconds", 20, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	coldFigures := flag.Bool("cold-figures", false, "internal: one cold figures regeneration in this process")
	hostKernel := flag.Bool("host-kernel", false, "internal: serve reference-kernel samples on stdin/stdout")
	writeDigests := flag.String("write-digests", "", "regenerate the wide digest table into this file")
	flag.Parse()

	var err error
	switch {
	case *coldFigures:
		err = coldFiguresChild()
	case *hostKernel:
		err = hostKernelChild()
	case *writeDigests != "":
		err = writeDigestTable(*writeDigests)
	default:
		err = runWorkload(*workload, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runWorkload(name string, seed uint64, seconds, trace int) error {
	run, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (figures|wide|service)", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	hm, err := startHostMeter()
	if err != nil {
		return err
	}
	defer hm.stop()
	b := &bench{
		seed:   seed,
		budget: time.Duration(seconds) * time.Second,
		tr:     newTracer(trace == 1),
		hm:     hm,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		info: map[string]any{
			"workload":   name,
			"seed":       seed,
			"traced":     trace == 1,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
	}
	stopSampler := b.sampleRuntime()
	err = run(b)
	stopSampler()
	if err != nil {
		return err
	}
	if err := hm.stop(); err != nil {
		return fmt.Errorf("host-speed helper: %w", err)
	}
	b.layer["host.factor"] = quantile(b.hm.factors, 0.5)
	b.info["host_factor"] = b.layer["host.factor"]
	info, _ := json.Marshal(b.info)
	fmt.Printf("host %s\n", info)
	metrics := map[string]metric{}
	if trace == 1 {
		if err := b.tr.write(name, seed); err != nil {
			return err
		}
		for _, l := range layerMetrics {
			metrics[l.name] = metric{b.layer[l.name], l.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := b.e2e[m.name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", name, m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run; BENCHMARK.json names
// the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"maxrss_mb", "MB"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
