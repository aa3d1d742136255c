package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"specrt/internal/harness"
	"specrt/internal/run"
)

// FuzzJobAdmission drives arbitrary request bodies through the same
// admission chain handleSubmit runs before a job is queued — JSON
// decode, JobRequest.Spec, harness.ResolveJob, run.Validate and
// JobSpec.Key — and requires that no input panics. Every stage may
// reject; only a crash or an unstable cache key is a failure.
func FuzzJobAdmission(f *testing.F) {
	f.Add([]byte(`{"workload":"Track","mode":"hw","procs":16,"topology":"mesh:4x4","dirmode":"coarse","policy":"adaptive","director":"cost"}`))
	f.Add([]byte(`{"workload":"Ocean","mode":"sw","procs":8,"topology":"mesh:2x4","placement":"blocked","dirmode":"coarse"}`))
	f.Add([]byte(`{"workload":"P3m","mode":"hw","procs":4,"sched":"dynamic:2","maxexec":1,"policy":"adaptive","director":"threshold"}`))
	f.Add([]byte(`{"workload":"Track","mode":"ideal","procs":1,"contention":false,"shards":4}`))
	f.Add([]byte(`]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		spec, err := req.Spec()
		if err != nil {
			return
		}
		w, cfg, err := harness.ResolveJob(spec, harness.Quick)
		if err != nil {
			return
		}
		if err := run.Validate(w, cfg); err != nil {
			return
		}
		key := spec.Key()
		if !strings.HasPrefix(key, spec.Workload+"/") || key != spec.Key() {
			t.Fatalf("unstable or malformed key %q for %+v", key, spec)
		}
	})
}
