// Command loadgen is the synthetic client fleet for specrtd: it hammers
// a running server with a seeded mix of duplicate and unique simulation
// configs from concurrent clients, waits for every job, and asserts
//
//   - byte-identical results: every server response equals a local
//     in-process execution of the same spec at the same scale,
//   - deduplication: the server simulated at most one job per unique
//     spec (singleflight + content-hash cache),
//   - cache effectiveness: re-submitting completed specs is served
//     synchronously from the cache (>0 cache-hit rate on duplicates).
//
// With -drain -termpid PID it instead runs the shutdown scenario: submit
// jobs, SIGTERM the server mid-flight, and assert the drain loses none
// of the accepted jobs while refusing new ones with 503.
//
// Exit status 0 means every assertion held; 1 reports the first failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"specrt/internal/harness"
	"specrt/internal/server"
	"specrt/internal/stats"
)

// axes of the generated design-space sweep. The cross product is far
// larger than any fleet run, so enumerating distinct indices yields
// guaranteed-distinct configs.
var (
	workloads  = []string{"Track", "Adm", "Ocean"}
	modes      = []string{"hw", "sw", "ideal"}
	procs      = []int{2, 4, 8}
	topologies = []string{"ideal", "bus", "crossbar", "mesh"}
	placements = []string{"round-robin", "blocked"}
)

// specAt enumerates the i-th point of the axis cross product.
func specAt(i int) server.JobRequest {
	r := server.JobRequest{}
	r.Workload, i = workloads[i%len(workloads)], i/len(workloads)
	r.Mode, i = modes[i%len(modes)], i/len(modes)
	r.Procs, i = procs[i%len(procs)], i/len(procs)
	r.Topology, i = topologies[i%len(topologies)], i/len(topologies)
	r.Placement = placements[i%len(placements)]
	return r
}

func maxSpecs() int {
	return len(workloads) * len(modes) * len(procs) * len(topologies) * len(placements)
}

// lcg drives the seeded shuffle and duplicate sampling (math/rand-free
// so runs are stable across Go versions, like internal/loops).
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8091", "server base URL")
	scaleFlag := flag.String("scale", "quick", "scale for local verification runs (must match the server's)")
	seed := flag.Uint64("seed", 1, "fleet seed: job mix and submission order")
	jobs := flag.Int("jobs", 24, "total jobs to submit")
	dup := flag.Float64("dup", 0.5, "fraction of jobs that duplicate an earlier config")
	clients := flag.Int("clients", 4, "concurrent fleet clients")
	verify := flag.Bool("verify", true, "byte-compare every server result against a local execution")
	drain := flag.Bool("drain", false, "run the SIGTERM drain scenario instead of the hammer")
	termPID := flag.Int("termpid", 0, "server PID to SIGTERM in -drain mode")
	flag.Parse()

	sc, err := harness.ScaleByName(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	cl := &server.Client{BaseURL: *addr, Tenant: "loadgen", PollInterval: 5 * time.Millisecond}
	if state, err := cl.Healthz(); err != nil || state != "ok" {
		log.Fatalf("server %s not healthy: state=%q err=%v", *addr, state, err)
	}

	if *drain {
		if err := drainScenario(cl, sc, *jobs, *seed, *termPID, *verify); err != nil {
			log.Fatalf("DRAIN FAIL: %v", err)
		}
		fmt.Println("loadgen: drain scenario ok")
		return
	}
	if err := hammer(cl, sc, *jobs, *dup, *clients, *seed, *verify); err != nil {
		log.Fatalf("FLEET FAIL: %v", err)
	}
	fmt.Println("loadgen: fleet ok")
}

// buildMix returns the seeded job list: nUnique distinct specs followed
// by duplicates sampled from them, shuffled deterministically.
func buildMix(jobs int, dup float64, seed uint64) (mix []server.JobRequest, unique int) {
	if dup < 0 || dup >= 1 {
		dup = 0.5
	}
	unique = jobs - int(float64(jobs)*dup)
	if unique < 1 {
		unique = 1
	}
	if unique > maxSpecs() {
		unique = maxSpecs()
	}
	for i := 0; i < unique; i++ {
		mix = append(mix, specAt(i))
	}
	x := lcg(seed)
	for len(mix) < jobs {
		x = lcg(x)
		mix = append(mix, specAt(int(x>>33)%unique))
	}
	for i := len(mix) - 1; i > 0; i-- { // Fisher-Yates with the lcg stream
		x = lcg(x)
		j := int(x>>33) % (i + 1)
		mix[i], mix[j] = mix[j], mix[i]
	}
	return mix, unique
}

// localBytes executes a spec in-process and encodes the report — the
// reference the server must match byte-for-byte.
func localBytes(req server.JobRequest, sc harness.Scale) ([]byte, error) {
	spec, err := req.Spec()
	if err != nil {
		return nil, err
	}
	plan, err := harness.Admit(spec, sc)
	if err != nil {
		return nil, err
	}
	return stats.ReportOf(plan.Execute(nil)).Encode()
}

// submitRetry submits with backoff on load shedding: a 429 is the
// server working as designed, so the fleet honors Retry-After.
func submitRetry(cl *server.Client, req server.JobRequest) (server.SubmitResponse, error) {
	for attempt := 0; ; attempt++ {
		sub, err := cl.Submit(req)
		apiErr, shed := err.(*server.APIError)
		if err == nil || !shed || !apiErr.Shed() || attempt >= 100 {
			return sub, err
		}
		wait := apiErr.RetryAfter
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		time.Sleep(wait)
	}
}

// metricValue extracts one counter from the /metrics text.
func metricValue(metricsText, name string) (int64, error) {
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(metricsText)
	if m == nil {
		return 0, fmt.Errorf("metric %s not found", name)
	}
	return strconv.ParseInt(m[1], 10, 64)
}

// hammer runs the main fleet scenario.
func hammer(cl *server.Client, sc harness.Scale, jobs int, dup float64, clients int, seed uint64, verify bool) error {
	mix, unique := buildMix(jobs, dup, seed)
	log.Printf("loadgen: %d jobs (%d unique, %d duplicates), %d clients, seed %d",
		len(mix), unique, len(mix)-unique, clients, seed)

	// Reference results, computed locally once per unique spec.
	local := make(map[string][]byte, unique)
	if verify {
		for i := 0; i < unique; i++ {
			spec, _ := specAt(i).Spec()
			b, err := localBytes(specAt(i), sc)
			if err != nil {
				return fmt.Errorf("local execution of %+v: %w", specAt(i), err)
			}
			local[spec.Key()] = b
		}
	}

	type outcome struct {
		req server.JobRequest
		sub server.SubmitResponse
		res []byte
		err error
	}
	outcomes := make([]outcome, len(mix))
	var wg sync.WaitGroup
	work := make(chan int)
	if clients < 1 {
		clients = 1
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tcl := *cl
			tcl.Tenant = fmt.Sprintf("fleet-%d", c)
			for i := range work {
				o := &outcomes[i]
				o.req = mix[i]
				o.sub, o.err = submitRetry(&tcl, mix[i])
				if o.err != nil {
					continue
				}
				o.res, o.err = tcl.WaitResult(o.sub.ID)
			}
		}(c)
	}
	for i := range mix {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, o := range outcomes {
		if o.err != nil {
			return fmt.Errorf("job %d (%+v): %w", i, o.req, o.err)
		}
		if verify {
			spec, _ := o.req.Spec()
			want := local[spec.Key()]
			if !bytes.Equal(o.res, want) {
				return fmt.Errorf("job %d (%+v): server bytes differ from local\nserver: %s\nlocal:  %s",
					i, o.req, o.res, want)
			}
		}
	}

	// Re-submit completed specs: guaranteed synchronous cache hits.
	resubmits := min(4, unique)
	for i := 0; i < resubmits; i++ {
		sub, err := submitRetry(cl, specAt(i))
		if err != nil {
			return fmt.Errorf("resubmit %d: %w", i, err)
		}
		if !sub.Cached {
			return fmt.Errorf("resubmit of completed spec %d not served from cache: %+v", i, sub)
		}
	}

	metricsText, err := cl.Metrics()
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	sims, err := metricValue(metricsText, "specrtd_sims_total")
	if err != nil {
		return err
	}
	hits, err := metricValue(metricsText, "specrtd_cache_hits_total")
	if err != nil {
		return err
	}
	if sims > int64(unique) {
		return fmt.Errorf("server simulated %d jobs for %d unique specs: dedup failed", sims, unique)
	}
	if len(mix) > unique && hits == 0 {
		return fmt.Errorf("no cache hits despite %d duplicate submissions", len(mix)-unique)
	}
	log.Printf("loadgen: ok — %d submissions, %d simulations, %d cache hits", len(mix)+resubmits, sims, hits)
	return nil
}

// drainScenario submits jobs, SIGTERMs the server mid-flight, and
// asserts every accepted job completes with correct bytes while new
// submissions are refused.
func drainScenario(cl *server.Client, sc harness.Scale, jobs int, seed uint64, pid int, verify bool) error {
	if pid <= 0 {
		return fmt.Errorf("-drain needs -termpid")
	}
	mix, _ := buildMix(jobs, 0, seed) // all unique: every job must actually simulate
	ids := make([]string, 0, len(mix))
	for _, req := range mix {
		sub, err := submitRetry(cl, req)
		if err != nil {
			return fmt.Errorf("submit %+v: %w", req, err)
		}
		ids = append(ids, sub.ID)
	}
	log.Printf("loadgen: %d jobs accepted, sending SIGTERM to %d", len(ids), pid)
	if err := syscall.Kill(pid, syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM %d: %w", pid, err)
	}
	// The server must report draining and refuse new work.
	deadline := time.Now().Add(10 * time.Second)
	for {
		state, err := cl.Healthz()
		if err != nil {
			return fmt.Errorf("healthz during drain: %w", err)
		}
		if state == "draining" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.Submit(mix[0]); err == nil {
		return fmt.Errorf("submission during drain was accepted")
	} else if apiErr, ok := err.(*server.APIError); !ok || apiErr.Status != 503 {
		return fmt.Errorf("submission during drain: got %v, want 503", err)
	}
	// Every accepted job must still complete and serve its result.
	for i, id := range ids {
		res, err := cl.WaitResult(id)
		if err != nil {
			return fmt.Errorf("job %s lost in drain: %w", id, err)
		}
		if verify {
			want, err := localBytes(mix[i], sc)
			if err != nil {
				return err
			}
			if !bytes.Equal(res, want) {
				return fmt.Errorf("job %s: drained result differs from local", id)
			}
		}
	}
	log.Printf("loadgen: all %d accepted jobs completed through the drain", len(ids))
	return nil
}
