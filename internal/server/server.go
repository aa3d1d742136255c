// Package server turns the simulator into a long-running
// simulation-as-a-service backend: an HTTP/JSON API that accepts
// simulation jobs for arbitrary (workload, procs, topology, placement,
// scheduler, protocol, dirmode) configs, executes them on the
// internal/harness job runner (bounded worker pool + in-flight
// singleflight), and memoizes encoded results in a content-hash LRU
// cache, so every repeated config — across tenants, across time — is a
// cache hit instead of a re-simulation.
//
// Endpoints:
//
//	POST /v1/jobs            submit a job (JobRequest) → SubmitResponse
//	GET  /v1/jobs/{id}       poll job status/progress → StatusResponse
//	GET  /v1/jobs/{id}/result raw encoded stats.Report bytes (byte-identical
//	                          to a local run of the same spec at the same scale)
//	GET  /v1/jobs/{id}/stream SSE progress events until completion
//	GET  /healthz            liveness (reports draining state)
//	GET  /metrics            Prometheus-style text metrics
//
// Load shedding: per-tenant inflight caps and a bounded global queue;
// overflow is rejected with 429 + Retry-After so clients back off
// instead of piling on. Graceful drain: Drain() (wired to SIGTERM in
// cmd/specrtd) stops admissions with 503, finishes every accepted job,
// and keeps results pollable — no accepted job is ever lost.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specrt/internal/harness"
	"specrt/internal/run"
	"specrt/internal/stats"
)

// Options configures a Server. The zero value picks sane defaults.
type Options struct {
	// Scale selects the harness scale jobs resolve against (default
	// Quick; a production deployment would run Default or Paper).
	Scale harness.Scale
	// Parallel bounds concurrently executing simulations (<= 0: one per
	// host core).
	Parallel int
	// QueueDepth bounds jobs queued but not yet executing, across all
	// tenants (default 64). A full queue sheds load with 429.
	QueueDepth int
	// TenantInflight bounds one tenant's queued+running jobs (default
	// 16); beyond it that tenant — and only that tenant — gets 429.
	TenantInflight int
	// CacheEntries bounds the result LRU (default 1024 entries).
	CacheEntries int
}

func (o Options) withDefaults() Options {
	if o.Scale.Name == "" {
		o.Scale = harness.Quick
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.TenantInflight <= 0 {
		o.TenantInflight = 16
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	return o
}

// jobStatus is the lifecycle state of one submitted job.
type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// job is one accepted submission. Result bytes and status are guarded
// by mu; progress counters are atomics so the SSE poller never contends
// with the simulating goroutine.
type job struct {
	id     string
	tenant string
	key    string
	plan   *run.Plan // admitted at submit, dropped when a worker takes the job

	submitted time.Time
	doneExecs atomic.Int64
	totalExec atomic.Int64

	mu     sync.Mutex
	status jobStatus
	cached bool
	result []byte
	errMsg string
	done   chan struct{}
}

func (j *job) progress(done, total int) {
	j.doneExecs.Store(int64(done))
	j.totalExec.Store(int64(total))
}

func (j *job) setStatus(st jobStatus) {
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()
}

func (j *job) finish(st jobStatus, result []byte, errMsg string) {
	j.mu.Lock()
	j.status = st
	j.result = result
	j.errMsg = errMsg
	j.mu.Unlock()
	close(j.done)
}

// snapshot returns a consistent view for status rendering.
func (j *job) snapshot() StatusResponse {
	j.mu.Lock()
	st, cached, result, errMsg := j.status, j.cached, j.result, j.errMsg
	j.mu.Unlock()
	return StatusResponse{
		ID:     j.id,
		Key:    j.key,
		Status: string(st),
		Done:   int(j.doneExecs.Load()),
		Total:  int(j.totalExec.Load()),
		Cached: cached,
		Error:  errMsg,
		Result: result,
	}
}

// Server is the simulation-as-a-service backend. Create with New, mount
// via Handler, stop with Drain.
type Server struct {
	opts   Options
	runner *harness.Runner
	cache  *resultCache
	mux    *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	tenants  map[string]int
	nextID   uint64
	draining bool

	queue       chan *job
	workers     sync.WaitGroup
	outstanding sync.WaitGroup // accepted jobs not yet finished

	metrics metrics
	started time.Time
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	s := newServer(opts)
	s.startWorkers()
	return s
}

// newServer builds a server without workers; tests use it to exercise
// admission paths with jobs pinned in the queue.
func newServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		runner:  harness.NewRunner(opts.Parallel),
		cache:   newResultCache(opts.CacheEntries),
		jobs:    make(map[string]*job),
		tenants: make(map[string]int),
		queue:   make(chan *job, opts.QueueDepth),
		started: time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// startWorkers launches one queue consumer per runner slot.
func (s *Server) startWorkers() {
	for i := 0; i < s.runner.Parallelism(); i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				s.execute(j)
			}
		}()
	}
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Runner exposes the underlying job runner (tests assert its simulated
// count to verify singleflight collapse).
func (s *Server) Runner() *harness.Runner { return s.runner }

// Drain gracefully stops the server's job processing: new submissions
// are refused with 503, every already-accepted job runs to completion,
// and results stay pollable. It returns the number of jobs that
// finished during the drain. Idempotent.
func (s *Server) Drain() int {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	before := s.metrics.completed.Load() + s.metrics.failed.Load()
	s.outstanding.Wait()
	if !already {
		close(s.queue)
	}
	s.workers.Wait()
	after := s.metrics.completed.Load() + s.metrics.failed.Load()
	return int(after - before)
}

// Draining reports whether the server has stopped admissions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// execute runs one queued job to completion on the runner.
func (s *Server) execute(j *job) {
	plan := j.plan
	j.plan = nil
	// A duplicate that was queued behind its twin finds the result
	// already cached by the time a worker picks it up: serve it from
	// the cache instead of re-simulating.
	st, errMsg := statusDone, ""
	result, cached := s.cache.get(j.key)
	if cached {
		s.metrics.cacheHits.Add(1)
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
	} else {
		j.setStatus(statusRunning)
		var err error
		if result, err = stats.ReportOf(s.runner.Run(j.key, plan, j.progress)).Encode(); err != nil {
			st, errMsg = statusFailed, err.Error()
		} else {
			s.cache.put(j.key, result)
		}
	}
	if st == statusDone {
		s.metrics.completed.Add(1)
	} else {
		s.metrics.failed.Add(1)
	}
	s.metrics.latency.observe(time.Since(j.submitted))
	j.finish(st, result, errMsg)
	s.releaseTenant(j.tenant)
	s.outstanding.Done()
}

func (s *Server) releaseTenant(tenant string) {
	s.mu.Lock()
	if s.tenants[tenant]--; s.tenants[tenant] <= 0 {
		delete(s.tenants, tenant)
	}
	s.mu.Unlock()
}

// tenantOf extracts the requesting tenant (X-Tenant header, default
// "anonymous"). Queue fairness and shedding are accounted per tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anonymous"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits, sheds, or short-circuits (cache hit) a job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.metrics.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	spec, err := req.Spec()
	if err != nil {
		s.metrics.badRequest.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := tenantOf(r)
	key := spec.Key()
	// A cached key was admitted when it was first simulated. A miss is
	// admitted up front, so admission errors are 400s, not failed jobs,
	// and the worker runs the plan admitted here.
	result, cached := s.cache.get(key)
	var plan *run.Plan
	if !cached {
		plan, err = harness.Admit(spec, s.opts.Scale)
		if err != nil {
			s.metrics.badRequest.Add(1)
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.drainedOff.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !cached {
		// The job may have finished since the lookup above.
		result, cached = s.cache.get(key)
	}
	// Cache hits bypass the queue and tenant accounting entirely: no
	// simulation happens, so there is nothing to bound.
	if cached {
		id := s.newJobIDLocked()
		j := &job{
			id: id, tenant: tenant, key: key,
			submitted: time.Now(), status: statusDone, cached: true,
			result: result, done: make(chan struct{}),
		}
		close(j.done)
		s.jobs[id] = j
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		s.metrics.cacheHits.Add(1)
		writeJSON(w, http.StatusOK, SubmitResponse{ID: id, Key: key, Status: string(statusDone), Cached: true})
		return
	}
	if s.tenants[tenant] >= s.opts.TenantInflight {
		s.mu.Unlock()
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant %q has %d jobs in flight (limit %d)",
			tenant, s.opts.TenantInflight, s.opts.TenantInflight)
		return
	}
	if len(s.queue) >= cap(s.queue) {
		s.mu.Unlock()
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued)", cap(s.queue))
		return
	}
	id := s.newJobIDLocked()
	j := &job{
		id: id, tenant: tenant, key: key, plan: plan,
		submitted: time.Now(), status: statusQueued, done: make(chan struct{}),
	}
	s.jobs[id] = j
	s.tenants[tenant]++
	s.outstanding.Add(1)
	// Enqueue under the lock: the capacity check above guarantees a slot
	// and admission stays atomic with the accounting.
	s.queue <- j
	s.mu.Unlock()
	s.metrics.submitted.Add(1)
	s.metrics.cacheMisses.Add(1)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, Key: key, Status: string(statusQueued)})
}

func (s *Server) newJobIDLocked() string {
	s.nextID++
	return fmt.Sprintf("j-%06d", s.nextID)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleResult serves the raw encoded report — the exact bytes a local
// run of the same spec at the same scale produces.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	snap := j.snapshot()
	switch jobStatus(snap.Status) {
	case statusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(snap.Result)
	case statusFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", snap.Error)
	default:
		writeJSON(w, http.StatusAccepted, snap)
	}
}

// handleStream emits SSE progress events until the job completes. Events
// carry the same StatusResponse JSON polling returns (without result
// bytes), then a final event with the terminal status.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func() {
		snap := j.snapshot()
		snap.Result = nil // progress events stay small; fetch /result at the end
		b, _ := json.Marshal(snap)
		fmt.Fprintf(w, "data: %s\n\n", b)
		fl.Flush()
	}
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	emit()
	for {
		select {
		case <-j.done:
			emit()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			emit()
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.Draining() {
		state = "draining"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s\n", state)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tenants := make(map[string]int, len(s.tenants))
	for t, n := range s.tenants {
		tenants[t] = n
	}
	jobs := len(s.jobs)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	m := &s.metrics
	fmt.Fprintf(w, "specrtd_jobs_submitted_total %d\n", m.submitted.Load())
	fmt.Fprintf(w, "specrtd_jobs_completed_total %d\n", m.completed.Load())
	fmt.Fprintf(w, "specrtd_jobs_failed_total %d\n", m.failed.Load())
	fmt.Fprintf(w, "specrtd_jobs_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "specrtd_jobs_rejected_draining_total %d\n", m.drainedOff.Load())
	fmt.Fprintf(w, "specrtd_bad_requests_total %d\n", m.badRequest.Load())
	fmt.Fprintf(w, "specrtd_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "specrtd_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(w, "specrtd_cache_entries %d\n", s.cache.len())
	fmt.Fprintf(w, "specrtd_sims_total %d\n", s.runner.Simulated())
	fmt.Fprintf(w, "specrtd_queue_depth %d\n", len(s.queue))
	fmt.Fprintf(w, "specrtd_jobs_tracked %d\n", jobs)
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		fmt.Fprintf(w, "specrtd_tenant_inflight{tenant=%q} %d\n", t, tenants[t])
	}
	m.latency.write(w, "specrtd_job_latency_ms")
	fmt.Fprintf(w, "specrtd_uptime_seconds %s\n", strconv.FormatFloat(time.Since(s.started).Seconds(), 'f', 3, 64))
}
