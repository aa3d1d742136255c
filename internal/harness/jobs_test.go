package harness

import (
	"sync"
	"sync/atomic"
	"testing"

	"specrt/internal/directory"
	"specrt/internal/policy"
	"specrt/internal/run"
)

// runSpec admits spec at quick scale and runs the plan on r, as specrtd
// and the harness do.
func runSpec(r *Runner, spec JobSpec, progress run.ProgressFunc) (*run.Result, error) {
	p, err := Admit(spec, Quick)
	if err != nil {
		return nil, err
	}
	return r.Run(spec.Key(), p, progress), nil
}

func quickSpec(mode run.Mode, procs int) JobSpec {
	return JobSpec{Workload: "Track", Config: run.Config{Procs: procs, Mode: mode, Contention: true}}
}

// TestRunnerSingleflight: N concurrent submissions of one spec collapse
// to a single simulation, and every caller shares the identical result.
func TestRunnerSingleflight(t *testing.T) {
	r := NewRunner(4)
	const callers = 8
	results := make([]*run.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := runSpec(r, quickSpec(run.HW, 4), nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	// All callers raced to submit; at most a few flights can win (a
	// caller arriving after a flight completed starts a fresh one), but
	// with all goroutines launched before any finishes the expected and
	// asserted collapse is to far fewer simulations than callers — and
	// identical cycle counts regardless.
	if n := r.Simulated(); n < 1 || n >= callers {
		t.Fatalf("expected singleflight collapse, simulated %d of %d submissions", n, callers)
	}
	for i := 1; i < callers; i++ {
		if results[i].Cycles != results[0].Cycles {
			t.Fatalf("caller %d saw different cycles: %d vs %d", i, results[i].Cycles, results[0].Cycles)
		}
	}
}

// TestRunnerDeterministicAcrossRunners: a fresh Runner re-simulates (no
// permanent memo) and reproduces the same result bytes.
func TestRunnerDeterministicAcrossRunners(t *testing.T) {
	spec := quickSpec(run.SW, 4)
	r1, err := runSpec(NewRunner(2), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runSpec(NewRunner(2), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Executions != r2.Executions {
		t.Fatalf("independent runners disagree: %d/%d vs %d/%d",
			r1.Cycles, r1.Executions, r2.Cycles, r2.Executions)
	}
}

// TestRunnerProgress: the progress hook fires and ends complete.
func TestRunnerProgress(t *testing.T) {
	r := NewRunner(1)
	var last atomic.Int64
	var total atomic.Int64
	_, err := runSpec(r, quickSpec(run.Ideal, 4), func(done, tot int) {
		last.Store(int64(done))
		total.Store(int64(tot))
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() == 0 || last.Load() != total.Load() {
		t.Fatalf("progress ended at %d/%d, want complete", last.Load(), total.Load())
	}
}

// TestRunnerErrors: unknown workloads and invalid configs report errors
// at admission, without simulating.
func TestRunnerErrors(t *testing.T) {
	r := NewRunner(1)
	if _, err := runSpec(r, JobSpec{Workload: "Nope", Config: run.Config{Procs: 1}}, nil); err == nil {
		t.Fatal("unknown workload did not error")
	}
	if _, err := runSpec(r, JobSpec{Workload: "Track", Config: run.Config{Procs: 0}}, nil); err == nil {
		t.Fatal("invalid config did not error")
	}
	if n := r.Simulated(); n != 0 {
		t.Fatalf("error paths simulated %d jobs", n)
	}
}

// TestRunnerKeeps: a NewRunner runner (specrtd's) keeps no completed
// flight, so the same spec run twice in a row simulates twice; the
// harness's runner keeps it and simulates once. Neither gets a flight
// for a spec that admission rejects (Procs 0 resolves but fails
// validation).
func TestRunnerKeeps(t *testing.T) {
	spec := quickSpec(run.HW, 2)
	bad := JobSpec{Workload: "Track", Config: run.Config{Procs: 0}}
	for _, tc := range []struct {
		name string
		r    *Runner
		sims int64
	}{
		{"NewRunner", NewRunner(1), 2},
		{"harness", NewParallel(Quick, 1).runner, 1},
	} {
		first, err := runSpec(tc.r, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runSpec(tc.r, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := tc.r.Simulated(); n != tc.sims {
			t.Errorf("%s: two runs in a row simulated %d times, want %d", tc.name, n, tc.sims)
		}
		if kept := second == first; kept != (tc.sims == 1) {
			t.Errorf("%s: second run shared the first result = %v", tc.name, kept)
		}
		if second.Cycles != first.Cycles {
			t.Errorf("%s: repeat run cycles %d, first %d", tc.name, second.Cycles, first.Cycles)
		}
		for i := 0; i < 2; i++ {
			if _, err := runSpec(tc.r, bad, nil); err == nil {
				t.Fatalf("%s: Procs 0 did not error", tc.name)
			}
		}
		if _, ok := tc.r.flights[bad.Key()]; ok {
			t.Errorf("%s: kept a flight that returned an error", tc.name)
		}
		if _, ok := tc.r.flights[spec.Key()]; ok != (tc.sims == 1) {
			t.Errorf("%s: flight for the good spec kept = %v", tc.name, ok)
		}
		if n := tc.r.Simulated(); n != tc.sims {
			t.Errorf("%s: failed runs counted as simulations: %d", tc.name, n)
		}
	}
}

// TestResolveJobScaleCap: the scale's execution cap folds into the
// effective config the same way for every caller.
func TestResolveJobScaleCap(t *testing.T) {
	spec := JobSpec{Workload: "Track", Config: run.Config{Procs: 2, Mode: run.HW}}
	_, cfg, err := ResolveJob(spec, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxExecutions != Quick.TrackExecs {
		t.Fatalf("scale cap not applied: MaxExecutions=%d want %d", cfg.MaxExecutions, Quick.TrackExecs)
	}
	spec.Config.MaxExecutions = 2 // tighter than the scale: keep it
	_, cfg, err = ResolveJob(spec, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxExecutions != 2 {
		t.Fatalf("explicit tighter cap overridden: MaxExecutions=%d", cfg.MaxExecutions)
	}
}

// Every paper loop at paper scale is admitted at directory.MaxProcs by
// every scheme, adaptive included: the caches' address bound only stops
// outside inputs such as traces. P3m under SW there lays out about
// 4.5 GB of simulated memory, more than a byte-address tag word could
// hold. Validate lays the space out without simulating anything.
func TestPaperJobsFitAddressBoundAtMaxProcs(t *testing.T) {
	for _, name := range []string{"Ocean", "P3m", "Adm", "Track"} {
		for _, base := range []run.Config{{Mode: run.SW}, {Mode: run.HW}, {Mode: run.HW, Policy: policy.Adaptive}} {
			base.Procs, base.Contention = directory.MaxProcs, true
			w, cfg, err := ResolveJob(JobSpec{Workload: name, Config: base}, Paper)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Validate(w, cfg); err != nil {
				t.Errorf("%s %v (policy %v) at %d processors: %v", name, cfg.Mode, cfg.Policy, cfg.Procs, err)
			}
		}
	}
}
