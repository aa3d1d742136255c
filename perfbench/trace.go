package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Group ties together the spans of
// one setup, pass or service job (children inherit their parent's
// group); Parent is the enclosing span (0 = none).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int    `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and every method is a no-op returning id 0.
type tracer struct {
	on     bool
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	groups int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// group allocates a fresh group id.
func (t *tracer) group() int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.groups++
	return t.groups
}

func (t *tracer) start(name string, parent, group int) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if group == 0 && parent != 0 {
		group = t.spans[parent-1].Group
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Group: group, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a child span of parent.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.start(name, parent, 0)
	f()
	t.end(id)
}

// seconds returns the durations of every span with the given name.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// computeSelf fills each span's self time: its duration minus the part
// of it that its children's spans cover.
func (t *tracer) computeSelf() {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write saves the spans as JSON under .bench_build/perfbench/trace/ and
// prints a per-name total/self summary on stderr.
func (t *tracer) write(workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.computeSelf()
	dir := filepath.Join(".bench_build", "perfbench", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
	fmt.Fprintf(os.Stderr, "%-34s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(os.Stderr, "%-34s %7d %12.4f %12.4f\n", n, a.n,
			time.Duration(a.total).Seconds(), time.Duration(a.self).Seconds())
	}
	return nil
}

// sampleRuntime tracks the live-heap high-water mark while a traced run
// executes; the returned function stops the sampler and waits for it.
func (b *bench) sampleRuntime() func() {
	if !b.tr.on {
		return func() {}
	}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	stop, done := make(chan struct{}), make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		b.layer["go.heap_peak_mb"] = float64(peak) / (1 << 20)
	}
}

// runtimeDelta records per-pass Go allocator and GC work between two
// MemStats snapshots taken around the timed passes.
func (b *bench) runtimeDelta(before, after *runtime.MemStats, passes int) {
	n := float64(passes)
	b.layer["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n
	b.layer["go.gc_cycles"] = float64(after.NumGC-before.NumGC) / n
	b.layer["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n
}
