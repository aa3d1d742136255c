package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"specrt/internal/loops"
	"specrt/internal/policy"
	"specrt/internal/run"
)

// The job API runs arbitrary (workload, run.Config) pairs instead of the
// experiment tables, with in-flight singleflight and progress fan-out so
// every waiter of a collapsed duplicate observes the one underlying
// simulation advance. The figure harness and specrtd both run through a
// Runner and key by JobSpec.Key, so a harness cell and the same job sent
// to specrtd share one content address. The harness's Runner keeps its
// completed flights as its memo; specrtd's keeps none and bounds its
// memory with an LRU above this layer.

// JobSpec identifies one simulation job: a paper workload by name plus
// the full execution config.
type JobSpec struct {
	Workload string
	Config   run.Config
}

// Key returns the job's content address: the workload name joined with
// the canonical config hash. Jobs with equal keys are guaranteed to
// produce byte-identical reports, so Key is safe to use as a result
// cache key.
func (s JobSpec) Key() string {
	return s.Workload + "/" + s.Config.Hash()
}

// WorkloadByName resolves a paper loop at a scale, returning the
// workload and the scale's execution cap (0 = no cap).
func WorkloadByName(name string, sc Scale) (*run.Workload, int, error) {
	switch name {
	case "Ocean":
		return loops.Ocean(), sc.OceanExecs, nil
	case "P3m":
		return loops.P3m(sc.P3mIters), 0, nil
	case "Adm":
		return loops.Adm(), sc.AdmExecs, nil
	case "Track":
		return loops.Track(), sc.TrackExecs, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (Ocean|P3m|Adm|Track)", name)
}

// ResolveJob instantiates a spec at a scale: the workload is built and
// the scale's execution cap folded into Config.MaxExecutions (the
// smaller wins, zero meaning uncapped). Admit resolves every job through
// here, so a job run locally and the same job run by specrtd run one
// effective config — the basis of the byte-identical guarantee.
func ResolveJob(spec JobSpec, sc Scale) (*run.Workload, run.Config, error) {
	w, cap, err := WorkloadByName(spec.Workload, sc)
	if err != nil {
		return nil, run.Config{}, err
	}
	cfg := spec.Config
	if cap > 0 && (cfg.MaxExecutions == 0 || cap < cfg.MaxExecutions) {
		cfg.MaxExecutions = cap
	}
	return w, cfg, nil
}

// Admit resolves a spec at a scale and admits the run: the one
// admission of a job, whether specrtd, the harness or a local client
// runs it.
func Admit(spec JobSpec, sc Scale) (*run.Plan, error) {
	w, cfg, err := ResolveJob(spec, sc)
	if err != nil {
		return nil, err
	}
	return run.Admit(w, cfg)
}

// flight is one in-progress simulation with progress fan-out. Waiters of
// collapsed duplicates subscribe; the simulating goroutine broadcasts.
type flight struct {
	done chan struct{}
	res  *run.Result

	mu        sync.Mutex
	subs      []run.ProgressFunc
	lastDone  int
	lastTotal int
}

// subscribe registers a progress observer and replays the latest
// observed progress so late joiners start current.
func (f *flight) subscribe(p run.ProgressFunc) {
	if p == nil {
		return
	}
	f.mu.Lock()
	f.subs = append(f.subs, p)
	done, total := f.lastDone, f.lastTotal
	f.mu.Unlock()
	if total > 0 {
		p(done, total)
	}
}

// broadcast records and fans out one progress observation.
func (f *flight) broadcast(done, total int) {
	f.mu.Lock()
	f.lastDone, f.lastTotal = done, total
	subs := f.subs
	f.mu.Unlock()
	for _, p := range subs {
		p(done, total)
	}
}

// Runner executes admitted job plans on a bounded worker pool with
// in-flight deduplication: concurrent Runs with equal keys collapse to
// one simulation whose result every caller shares. A NewRunner runner
// retains no completed results, so a long-running server's memory stays
// bounded by the cache it puts above the Runner. The figure harness's
// runner keeps every flight as its memo: a caller either joins a flight
// or finds it kept, with no window between the two.
type Runner struct {
	sem  chan struct{}
	keep bool // retain completed flights

	mu      sync.Mutex
	flights map[string]*flight

	simulated atomic.Int64
}

// NewRunner creates a job runner; par <= 0 selects one worker per host
// core.
func NewRunner(par int) *Runner { return newRunner(par, false) }

// newRunner creates a runner that, with keep, is the harness's memo.
func newRunner(par int, keep bool) *Runner {
	return &Runner{
		sem:     make(chan struct{}, parallelism(par)),
		keep:    keep,
		flights: make(map[string]*flight),
	}
}

// Parallelism reports the worker-pool size.
func (r *Runner) Parallelism() int { return cap(r.sem) }

// Simulated reports how many simulations actually executed — duplicate
// Runs collapsed by singleflight or served from kept flights do not
// count. Tests and the server's metrics endpoint use it to verify
// deduplication.
func (r *Runner) Simulated() int64 { return r.simulated.Load() }

// Run executes plan, the admitted job with content address key
// (JobSpec.Key), or joins an identical flight, and returns the shared
// result. progress, if non-nil, observes the underlying simulation's
// per-execution progress even when this call joined a flight started by
// another caller.
func (r *Runner) Run(key string, plan *run.Plan, progress run.ProgressFunc) *run.Result {
	r.mu.Lock()
	if f := r.flights[key]; f != nil {
		r.mu.Unlock()
		f.subscribe(progress)
		<-f.done
		return f.res
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	r.mu.Unlock()

	f.subscribe(progress)
	f.res = r.execute(plan, nil, f.broadcast)
	if !r.keep {
		r.mu.Lock()
		delete(r.flights, key)
		r.mu.Unlock()
	}
	close(f.done)
	return f.res
}

// execute simulates one admitted plan while holding a pool slot — the
// only place a simulation runs. A non-nil director pins the policy of
// an adaptive run (run.Plan.ExecuteDirected); such runs are not keyed by
// Config.Hash, so they bypass the flights and run every time.
func (r *Runner) execute(p *run.Plan, d policy.Director, progress run.ProgressFunc) *run.Result {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	r.simulated.Add(1)
	return p.ExecuteDirected(d, progress)
}
