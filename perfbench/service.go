package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specrt/internal/harness"
	"specrt/internal/loops"
	"specrt/internal/run"
	"specrt/internal/server"
)

const (
	// dupShare is the share of a pass's jobs that repeat an earlier
	// config: cmd/specrtd/loadgen's default -dup.
	dupShare   = 0.5
	minSamples = 100 // uncached job latencies a run needs at least
)

// serverCounters maps specrtd /metrics counters to per-layer metrics.
var serverCounters = [][2]string{
	{"specrtd_cache_hits_total", "server.cache_hits"},
	{"specrtd_cache_misses_total", "server.cache_misses"},
	{"specrtd_sims_total", "server.sims"},
	{"specrtd_jobs_shed_total", "server.shed"},
	{"specrtd_jobs_failed_total", "server.failed"},
}

// jobShape is the part of a request that sets its simulation cost.
type jobShape struct {
	workload string
	mode     string
	procs    int
	director string // non-empty: adaptive policy with this director
}

// serviceShapes are the unique jobs of a pass: the cells of Figures 11
// and 14 (each loop's serial baseline and Ideal, SW and HW at its paper
// processor count, plus the scaling loops at 4, 8 and 16 processors),
// and each loop under the adaptive ablation's two learned directors at
// the ablation's machine width.
func serviceShapes() []jobShape {
	var shapes []jobShape
	for _, w := range harness.LoopNames {
		shapes = append(shapes, jobShape{w, "serial", 1, ""})
		procs := []int{loops.Procs(w)}
		if w != "Ocean" { // Figure 14 omits Ocean
			procs = []int{4, 8, 16}
		}
		for _, p := range procs {
			for _, mode := range []string{"ideal", "sw", "hw"} {
				shapes = append(shapes, jobShape{w, mode, p, ""})
			}
		}
		for _, d := range []string{"threshold", "cost"} {
			shapes = append(shapes, jobShape{w, "hw", harness.AdaptiveProcs, d})
		}
	}
	return shapes
}

// svcJob is one entry of a pass's job list; key indexes the unique jobs.
type svcJob struct {
	req server.JobRequest
	key int
}

// The request axes beyond a shape, with cmd/specrtd/loadgen's topology
// and placement values.
var (
	topologies = []string{"ideal", "bus", "crossbar", "mesh"}
	placements = []string{"round-robin", "blocked"}
	dirModes   = []string{"full-map", "coarse"}
	schedules  = []string{"", "static", "dynamic:2", "block-cyclic:4"}
)

// shapeRequest is the k-th point of the axis cross product for a shape,
// enumerated as loadgen's specAt does (mixed radix, topology fastest).
// The schedule applies only to static parallel jobs.
func shapeRequest(s jobShape, k int) server.JobRequest {
	req := server.JobRequest{Workload: s.workload, Mode: s.mode, Procs: s.procs}
	req.Topology, k = topologies[k%len(topologies)], k/len(topologies)
	req.Placement, k = placements[k%len(placements)], k/len(placements)
	req.DirMode, k = dirModes[k%len(dirModes)], k/len(dirModes)
	if s.director != "" {
		req.Policy, req.Director = "adaptive", s.director
	} else if s.mode != "serial" {
		req.Sched = schedules[k%len(schedules)]
	}
	return req
}

// serviceUniques is a pass's unique jobs, the same for every seed: shape
// i takes point i of the axis cross product, or the next valid one, so
// every axis value recurs evenly over the shapes. Seeded axes would make
// the unique set a small random sample whose cost moves from seed to
// seed: over seeds 1–5 the summed job time moved by ±5% and the
// 90th-percentile job by ±14%.
func serviceUniques() ([]server.JobRequest, error) {
	var uniques []server.JobRequest
	for i, shape := range serviceShapes() {
		for k := i; ; k++ {
			if k > i+1000 {
				return nil, fmt.Errorf("no valid job of shape %+v", shape)
			}
			req := shapeRequest(shape, k)
			if w, cfg, err := resolve(req); err == nil && run.Validate(w, cfg) == nil {
				uniques = append(uniques, req)
				break
			}
		}
	}
	return uniques, nil
}

// serviceJobs draws a pass's job list from the seeded stream r: the
// unique jobs plus repeats drawn uniformly from them until they make up
// cmd/specrtd/loadgen's default -dup share of the list, in seeded order.
// With two closed-loop clients such a repeat almost always comes after
// its twin has finished, so it is an LRU hit. Half of the repeats
// therefore follow the first occurrence of their twin directly, where
// they usually join its flight (singleflight dedup). Every pass draws a
// list of its own, so the median pass is not one order's luck at the
// tail, where a long job may run alone.
func serviceJobs(r *splitmix, uniques []server.JobRequest) []svcJob {
	repeats := int(float64(len(uniques))/(1-dupShare)) - len(uniques)
	near := repeats / 2
	jobs := make([]svcJob, 0, len(uniques)+repeats)
	for i := range uniques {
		jobs = append(jobs, svcJob{uniques[i], i})
	}
	for len(jobs) < len(uniques)+repeats-near {
		k := r.intn(len(uniques))
		jobs = append(jobs, svcJob{uniques[k], k})
	}
	shuffle(r, jobs)
	keys := make([]int, len(uniques))
	for i := range keys {
		keys[i] = i
	}
	shuffle(r, keys)
	for _, k := range keys[:near] {
		first := slices.IndexFunc(jobs, func(j svcJob) bool { return j.key == k })
		jobs = slices.Insert(jobs, first+1, svcJob{uniques[k], k})
	}
	return jobs
}

// shuffle permutes xs in place (Fisher-Yates over the seeded stream).
func shuffle[T any](r *splitmix, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// expectedReports computes each unique job's report bytes locally, the
// way `specrt job` does without -server, on one goroutine per worker.
func expectedReports(uniques []server.JobRequest, workers int) ([][]byte, error) {
	out := make([][]byte, len(uniques))
	errs := make([]error, len(uniques))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(uniques); i = int(next.Add(1) - 1) {
				out[i], errs[i] = localReport(uniques[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %+v: %w", uniques[i], err)
		}
	}
	return out, nil
}

// localReport executes one job in process and encodes its report.
func localReport(req server.JobRequest) ([]byte, error) {
	w, cfg, err := resolve(req)
	if err != nil {
		return nil, err
	}
	r, err := run.Execute(w, cfg)
	if err != nil {
		return nil, err
	}
	return encode(r)
}

// resolve turns a request into the workload and config the server runs.
func resolve(req server.JobRequest) (*run.Workload, run.Config, error) {
	spec, err := req.Spec()
	if err != nil {
		return nil, run.Config{}, err
	}
	return harness.ResolveJob(spec, harness.Default)
}

// liveServer is a fresh specrtd on a loopback listener.
type liveServer struct {
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error
	httpc *http.Client
}

func startServer(workers int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:   server.New(server.Options{Scale: harness.Default, Parallel: workers}),
		base:  "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
		httpc: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server, closes the listener and every connection, and
// waits for the serve loop to return.
func (s *liveServer) stop() {
	s.srv.Drain()
	s.hs.Close()
	<-s.done
	s.httpc.CloseIdleConnections()
}

// counters scrapes the server's /metrics counters.
func (s *liveServer) counters() (map[string]float64, error) {
	resp, err := s.httpc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	start                        time.Time
	total, submit, stream, fetch time.Duration
	cached, ok                   bool
}

// call issues one request and returns its body, failing on a non-2xx.
func (s *liveServer) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// await reads the job's SSE stream until it ends and returns the last
// event's status.
func (s *liveServer) await(id string) (server.StatusResponse, error) {
	var last server.StatusResponse
	resp, err := s.httpc.Get(s.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("stream %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			return last, err
		}
		if last.Error != "" {
			return last, fmt.Errorf("stream %s: job error %s", id, last.Error)
		}
	}
	return last, sc.Err()
}

// do runs one job end to end — submit, wait on the stream, fetch the
// result — and checks the bytes.
func (s *liveServer) do(b *bench, j svcJob, want []byte, parent int) (t jobTiming, err error) {
	t.start = time.Now()
	js := b.tr.start("service.job", parent, b.tr.group())
	defer b.tr.end(js)
	body, err := json.Marshal(j.req)
	if err != nil {
		return t, err
	}
	id := b.tr.start("server.submit", js, 0)
	raw, err := s.call(http.MethodPost, "/v1/jobs", body)
	b.tr.end(id)
	t.submit = time.Since(t.start)
	if err != nil {
		return t, err
	}
	var sub server.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		return t, err
	}
	t.cached = sub.Cached
	mark := time.Now()
	id = b.tr.start("server.stream", js, 0)
	st, err := s.await(sub.ID)
	b.tr.end(id)
	t.stream = time.Since(mark)
	if err != nil {
		return t, err
	}
	if st.Status != "done" {
		return t, fmt.Errorf("job %s ended %q", sub.ID, st.Status)
	}
	mark = time.Now()
	id = b.tr.start("server.result", js, 0)
	got, err := s.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
	b.tr.end(id)
	t.fetch = time.Since(mark)
	t.total = time.Since(t.start)
	if err != nil {
		return t, err
	}
	if !bytes.Equal(got, want) {
		return t, fmt.Errorf("job %s result differs from the local report", sub.ID)
	}
	t.ok = true
	return t, nil
}

// runService times closed-loop clients against a fresh in-process
// specrtd per pass. Set-up generates the job list, computes every unique
// job's expected bytes locally and starts a server.
func runService(b *bench) error {
	clients := runtime.NumCPU()
	b.info["clients"], b.info["workers"] = clients, clients
	var jobs []svcJob
	var uniques []server.JobRequest
	var want [][]byte
	err := b.setup(func(int) error {
		var err error
		if uniques, err = serviceUniques(); err != nil {
			return err
		}
		jobs = serviceJobs(&splitmix{b.seed}, uniques)
		if want, err = expectedReports(uniques, clients); err != nil {
			return err
		}
		s, err := startServer(clients)
		if err != nil {
			return err
		}
		s.stop()
		return nil
	})
	if err != nil {
		return err
	}
	b.info["jobs_per_pass"], b.info["unique_per_pass"] = len(jobs), len(uniques)

	// Each pass's client-side times, in wall milliseconds until the
	// pass's host factor is known.
	type passTimes struct{ uncached, hit, submit, stream, fetch []float64 }
	var perPass []passTimes
	srvCounts := map[string][]float64{}
	mix := splitmix{b.seed}
	secs, factors, err := b.passes(4, func(pass, span int) error {
		jobs := serviceJobs(&mix, uniques)
		s, err := startServer(clients)
		if err != nil {
			return err
		}
		timings := make([]jobTiming, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
					t, err := s.do(b, jobs[i], want[jobs[i].key], span)
					timings[i] = t
					mu.Lock()
					b.check(err == nil, "pass %d job %d %+v: %v", pass, i, jobs[i].req, err)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if b.tr.on {
			m, err := s.counters()
			if err != nil {
				s.stop()
				return err
			}
			for _, c := range serverCounters {
				srvCounts[c[1]] = append(srvCounts[c[1]], m[c[0]])
			}
		}
		s.stop()

		// An uncached job's latency is its key's earliest submission.
		var p passTimes
		first := make([]int, len(uniques))
		for i := range first {
			first[i] = -1
		}
		for i, j := range jobs {
			t := timings[i]
			if !t.ok {
				continue
			}
			p.submit = append(p.submit, ms(t.submit))
			p.stream = append(p.stream, ms(t.stream))
			p.fetch = append(p.fetch, ms(t.fetch))
			if t.cached {
				p.hit = append(p.hit, ms(t.total))
			} else if f := first[j.key]; f < 0 || t.start.Before(timings[f].start) {
				first[j.key] = i
			}
		}
		for _, f := range first {
			if f >= 0 {
				p.uncached = append(p.uncached, ms(timings[f].total))
			}
		}
		perPass = append(perPass, p)
		return nil
	})
	if err != nil {
		return err
	}
	// Every job time is in reference milliseconds, like pass_s.
	var uncachedMS, hitMS, submitMS, streamMS, fetchMS []float64
	for i, p := range perPass {
		k := 1 / factors[i]
		uncachedMS = append(uncachedMS, scale(p.uncached, k)...)
		hitMS = append(hitMS, scale(p.hit, k)...)
		submitMS = append(submitMS, scale(p.submit, k)...)
		streamMS = append(streamMS, scale(p.stream, k)...)
		fetchMS = append(fetchMS, scale(p.fetch, k)...)
	}
	b.recordPasses(secs, false)
	b.e2e["job_ms_p50"] = quantile(uncachedMS, 0.5)
	b.e2e["job_ms_p90"] = quantile(uncachedMS, 0.9)
	b.info["job_samples"] = len(uncachedMS)
	b.check(len(uncachedMS) >= minSamples, "only %d uncached job samples", len(uncachedMS))

	m := b.layer
	m["server.submit_ms_p50"] = quantile(submitMS, 0.5)
	m["server.stream_ms_p50"] = quantile(streamMS, 0.5)
	m["server.result_ms_p50"] = quantile(fetchMS, 0.5)
	m["server.hit_ms_p50"] = quantile(hitMS, 0.5)
	m["server.hit_ms_p90"] = quantile(hitMS, 0.9)
	for name, xs := range srvCounts {
		m[name] = quantile(xs, 0.5)
	}
	m["server.sims_per_unique"] = m["server.sims"] / float64(len(uniques))

	if !b.tr.on {
		return nil
	}
	// The run layer's figures come from one serial execution of each
	// unique job, as a single server worker would run it.
	rec := newLayerRecorder(b)
	for i, req := range uniques {
		w, cfg, err := resolve(req)
		if err != nil {
			return err
		}
		if err := rec.admission(w, cfg); err != nil {
			return err
		}
		e, err := execute(w, cfg)
		if err != nil {
			return err
		}
		rec.timed(e, 0)
		rec.counts(e.res)
		got, err := rec.encoded(e.res)
		if err != nil {
			return err
		}
		b.check(bytes.Equal(got, want[i]), "serial re-execution of %+v differs from set-up", req)
	}
	rec.finish()
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
