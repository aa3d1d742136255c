package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specrt/internal/harness"
	"specrt/internal/run"
	"specrt/internal/stats"
)

func trackReq(mode string, procs int) JobRequest {
	return JobRequest{Workload: "Track", Mode: mode, Procs: procs}
}

// post submits a request body directly to the mux and returns the
// recorded response.
func post(t *testing.T, s *Server, body any, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", &buf)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func submitOK(t *testing.T, s *Server, req JobRequest, tenant string) SubmitResponse {
	t.Helper()
	w := post(t, s, req, tenant)
	if w.Code != http.StatusAccepted && w.Code != http.StatusOK {
		t.Fatalf("submit returned %d: %s", w.Code, w.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, s *Server, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		w := get(t, s, "/v1/jobs/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("status returned %d: %s", w.Code, w.Body)
		}
		var st StatusResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == string(statusDone) || st.Status == string(statusFailed) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return StatusResponse{}
}

// TestSubmitBadRequests: malformed and invalid submissions are rejected
// with 400 before consuming any queue slot or worker.
func TestSubmitBadRequests(t *testing.T) {
	s := New(Options{Scale: harness.Quick, Parallel: 1})
	cases := []struct {
		name string
		body any
	}{
		{"unknown workload", JobRequest{Workload: "Nope", Mode: "hw", Procs: 4}},
		{"unknown mode", JobRequest{Workload: "Track", Mode: "warp", Procs: 4}},
		{"zero procs", JobRequest{Workload: "Track", Mode: "hw", Procs: 0}},
		{"bad topology", JobRequest{Workload: "Track", Mode: "hw", Procs: 4, Topology: "torus"}},
		{"bad placement", JobRequest{Workload: "Track", Mode: "hw", Procs: 4, Placement: "everywhere"}},
		{"bad dirmode", JobRequest{Workload: "Track", Mode: "hw", Procs: 4, DirMode: "sparse"}},
		{"bad sched", JobRequest{Workload: "Track", Mode: "hw", Procs: 4, Sched: "guided:2"}},
		{"mesh too small", JobRequest{Workload: "Track", Mode: "hw", Procs: 16, Topology: "mesh:2x2"}},
		{"bad policy", JobRequest{Workload: "Track", Mode: "hw", Procs: 4, Policy: "magic"}},
		{"bad director", JobRequest{Workload: "Track", Mode: "hw", Procs: 4, Policy: "adaptive", Director: "oracle"}},
		{"director without policy", JobRequest{Workload: "Track", Mode: "hw", Procs: 4, Director: "threshold"}},
		// Ocean's SW test is processor-wise: the SW strategy a director
		// may pick cannot run a dynamic schedule.
		{"adaptive sw strategy under dynamic sched", JobRequest{Workload: "Ocean", Mode: "hw", Procs: 8,
			Sched: "dynamic:4", Policy: "adaptive", Director: "cost"}},
		{"not json", "]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, tc.body, "")
			if w.Code != http.StatusBadRequest {
				t.Fatalf("got %d, want 400: %s", w.Code, w.Body)
			}
		})
	}
	if n := s.metrics.badRequest.Load(); n != uint64(len(cases)) {
		t.Fatalf("bad_requests metric %d, want %d", n, len(cases))
	}
	if n := s.Runner().Simulated(); n != 0 {
		t.Fatalf("bad requests simulated %d jobs", n)
	}
}

// TestLoadShedding: admission control rejects with 429 + Retry-After on
// both the per-tenant inflight cap and the global queue bound. The
// server has no workers, so accepted jobs pin the queue deterministically.
func TestLoadShedding(t *testing.T) {
	s := newServer(Options{Scale: harness.Quick, Parallel: 1, QueueDepth: 2, TenantInflight: 2})
	// Tenant A fills its inflight allowance (and the queue).
	submitOK(t, s, trackReq("hw", 2), "A")
	submitOK(t, s, trackReq("hw", 4), "A")

	cases := []struct {
		name   string
		req    JobRequest
		tenant string
		want   string // substring of the shed reason
	}{
		{"tenant cap", trackReq("hw", 8), "A", "in flight"},
		{"queue full", trackReq("hw", 8), "B", "queue full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, tc.req, tc.tenant)
			if w.Code != http.StatusTooManyRequests {
				t.Fatalf("got %d, want 429: %s", w.Code, w.Body)
			}
			if ra := w.Header().Get("Retry-After"); ra == "" {
				t.Fatalf("429 without Retry-After")
			}
			if !strings.Contains(w.Body.String(), tc.want) {
				t.Fatalf("shed reason %q does not mention %q", w.Body.String(), tc.want)
			}
		})
	}
	if n := s.metrics.shed.Load(); n != 2 {
		t.Fatalf("shed metric %d, want 2", n)
	}
}

// TestDuplicateSubmissionsCollapse: concurrent submissions of one spec
// all complete with identical bytes while the harness simulates exactly
// once — singleflight at the runner plus the in-queue cache check.
func TestDuplicateSubmissionsCollapse(t *testing.T) {
	s := New(Options{Scale: harness.Quick, Parallel: 2})
	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			ids[i] = submitOK(t, s, trackReq("hw", 4), fmt.Sprintf("tenant-%d", i)).ID
		}(i)
	}
	wg.Wait()
	var first []byte
	for i, id := range ids {
		st := waitDone(t, s, id)
		if st.Status != string(statusDone) {
			t.Fatalf("job %s: %s (%s)", id, st.Status, st.Error)
		}
		w := get(t, s, "/v1/jobs/"+id+"/result")
		if w.Code != http.StatusOK {
			t.Fatalf("result returned %d", w.Code)
		}
		if i == 0 {
			first = append([]byte(nil), w.Body.Bytes()...)
		} else if !bytes.Equal(first, w.Body.Bytes()) {
			t.Fatalf("job %s returned different bytes", id)
		}
	}
	if sims := s.Runner().Simulated(); sims != 1 {
		t.Fatalf("%d duplicate submissions ran %d simulations, want 1", n, sims)
	}
	// A later identical submission is a synchronous cache hit.
	sub := submitOK(t, s, trackReq("hw", 4), "late")
	if !sub.Cached || sub.Status != string(statusDone) {
		t.Fatalf("post-completion duplicate not served from cache: %+v", sub)
	}
	if hits := s.metrics.cacheHits.Load(); hits == 0 {
		t.Fatalf("cache hits metric is zero after a cached submission")
	}
}

// TestByteIdenticalWithLocal: the server's result bytes equal a local
// execution of the same spec at the same scale — through a real HTTP
// listener and the package client.
func TestByteIdenticalWithLocal(t *testing.T) {
	s := New(Options{Scale: harness.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL, Tenant: "test", PollInterval: 2 * time.Millisecond}

	req := JobRequest{Workload: "Adm", Mode: "sw", Procs: 4, Topology: "mesh", Placement: "blocked"}
	sub, err := cl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cl.WaitResult(sub.ID)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	w, cfg, err := harness.ResolveJob(spec, harness.Quick)
	if err != nil {
		t.Fatal(err)
	}
	local, err := stats.ReportOf(run.MustExecute(w, cfg)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote, local) {
		t.Fatalf("server and local bytes differ:\nserver: %s\nlocal:  %s", remote, local)
	}
}

// TestLegacyShardFieldIgnored: servers once accepted a "shards" field
// that only changed wall-clock time. The decoder ignores unknown fields,
// so an old client that still sends it is admitted under the same cache
// key and gets the same report bytes as the request without it.
func TestLegacyShardFieldIgnored(t *testing.T) {
	s := New(Options{Scale: harness.Quick, Parallel: 1})
	req := JobRequest{Workload: "Ocean", Mode: "hw", Procs: 4}
	w := post(t, s, json.RawMessage(`{"workload":"Ocean","mode":"hw","procs":4,"shards":4}`), "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit with shards returned %d: %s", w.Code, w.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if sub.Key != spec.Key() {
		t.Fatalf("key with shards %q, without %q", sub.Key, spec.Key())
	}
	if st := waitDone(t, s, sub.ID); st.Status != string(statusDone) {
		t.Fatalf("job with shards ended %q: %s", st.Status, st.Error)
	}
	got := get(t, s, "/v1/jobs/"+sub.ID+"/result").Body.Bytes()

	wl, cfg, err := harness.ResolveJob(spec, harness.Quick)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.ReportOf(run.MustExecute(wl, cfg)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report with shards differs:\nwith:    %s\nwithout: %s", got, want)
	}
}

// TestStreamProgress: the SSE endpoint emits progress events and a
// terminal done event.
func TestStreamProgress(t *testing.T) {
	s := New(Options{Scale: harness.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	sub, err := cl.Submit(trackReq("sw", 4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		var st StatusResponse
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if st.Status == string(statusDone) {
			if st.Total == 0 || st.Done != st.Total {
				t.Fatalf("done event with progress %d/%d", st.Done, st.Total)
			}
			return
		}
	}
	t.Fatalf("stream ended after %d events without a done event", events)
}

// TestDrainNoLostJobs: Drain refuses new work with 503 but completes
// and keeps serving every accepted job.
func TestDrainNoLostJobs(t *testing.T) {
	s := New(Options{Scale: harness.Quick, Parallel: 2})
	ids := []string{
		submitOK(t, s, trackReq("hw", 2), "d").ID,
		submitOK(t, s, trackReq("sw", 2), "d").ID,
		submitOK(t, s, trackReq("ideal", 2), "d").ID,
	}
	s.Drain()
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
	if w := get(t, s, "/healthz"); !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("healthz during drain: %q", w.Body.String())
	}
	if w := post(t, s, trackReq("hw", 8), "d"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain got %d, want 503", w.Code)
	}
	for _, id := range ids {
		st := waitDone(t, s, id)
		if st.Status != string(statusDone) {
			t.Fatalf("accepted job %s lost in drain: %s (%s)", id, st.Status, st.Error)
		}
		if w := get(t, s, "/v1/jobs/"+id+"/result"); w.Code != http.StatusOK {
			t.Fatalf("result of %s not served after drain: %d", id, w.Code)
		}
	}
	s.Drain() // idempotent
}

// TestMetricsEndpoint: the text exposition carries every counter family.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Options{Scale: harness.Quick})
	id := submitOK(t, s, trackReq("hw", 2), "m").ID
	waitDone(t, s, id)
	submitOK(t, s, trackReq("hw", 2), "m") // cache hit
	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"specrtd_jobs_submitted_total 2",
		"specrtd_jobs_completed_total 1",
		"specrtd_cache_hits_total 1",
		"specrtd_cache_misses_total 1",
		"specrtd_cache_entries 1",
		"specrtd_sims_total 1",
		"specrtd_queue_depth 0",
		"specrtd_job_latency_ms_count 1",
		"specrtd_job_latency_ms_bucket{le=\"+Inf\"} 1",
		"specrtd_uptime_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestResultCacheLRU: bounded capacity, LRU eviction, get refreshes.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Fatal("a lost after eviction")
	}
	if v, ok := c.get("c"); !ok || string(v) != "C" {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
}

// TestRequestSpellingsShareKey: named-field spellings that mean the same
// config produce one cache key ("hw" vs "HW", "" vs explicit defaults).
func TestRequestSpellingsShareKey(t *testing.T) {
	a, err := JobRequest{Workload: "Track", Mode: "hw", Procs: 4}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobRequest{Workload: "Track", Mode: "HW", Procs: 4,
		Topology: "ideal", Placement: "round-robin", DirMode: "full-map",
		Policy: "off", Director: "static"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent requests keyed differently:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestAdaptiveJobEndToEnd: an adaptive submission runs, reports the
// policy section in its result, and hits the result cache on resubmit —
// adaptive runs are deterministic functions of (workload, config), so
// they cache exactly like static ones.
func TestAdaptiveJobEndToEnd(t *testing.T) {
	s := New(Options{Scale: harness.Quick, Parallel: 1})
	req := JobRequest{Workload: "Track", Mode: "hw", Procs: 4,
		Policy: "adaptive", Director: "threshold"}
	sub := submitOK(t, s, req, "")
	st := waitDone(t, s, sub.ID)
	if st.Status != string(statusDone) {
		t.Fatalf("adaptive job failed: %s", st.Error)
	}
	rep, err := stats.DecodeReport(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy == nil || rep.Policy.Director != "threshold" {
		t.Fatalf("adaptive result missing policy section: %+v", rep.Policy)
	}
	if len(rep.Policy.Decisions) != rep.Executions {
		t.Fatalf("trace has %d decisions for %d executions", len(rep.Policy.Decisions), rep.Executions)
	}

	again := submitOK(t, s, req, "")
	if !again.Cached {
		t.Fatalf("identical adaptive resubmission missed the result cache")
	}
	if again.Key != sub.Key {
		t.Fatalf("resubmission keyed differently: %s vs %s", again.Key, sub.Key)
	}
}
