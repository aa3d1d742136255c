package trace

import (
	"bytes"
	"strings"
	"testing"

	"specrt/internal/run"
)

// FuzzParse ensures the JSON loader never panics and that every
// successfully parsed workload actually simulates.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte(`{"arrays":[{"elems":4,"elemSize":4}],"iterations":[[]]}`))
	f.Add([]byte(`{"arrays":[{"elems":1,"elemSize":8,"test":"priv-rico"}],
	               "iterations":[[{"op":"store","array":0,"elem":0}]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"arrays":[{"elems":21474836480,"elemSize":4,"test":"nonpriv"}],"iterations":[[]]}`)) // 80 GB: over the address bound
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine
		}
		// Accepted inputs must be simulatable without panicking. Parse
		// admits only traces that fit every mode on two processors, so
		// admission is checked for every input; Validate allocates
		// nothing per element.
		cfg := run.Config{Procs: 2, Mode: run.HW, Contention: true}
		if err := run.Validate(w, cfg); err != nil {
			t.Fatalf("parsed workload rejected by Validate: %v", err)
		}
		if w.Iterations(0) > 64 || totalOps(w) > 512 || totalElems(w) > 1<<16 {
			return // keep the fuzz iteration cheap
		}
		r, err := run.Execute(w, cfg)
		if err != nil {
			t.Fatalf("parsed workload rejected by Execute: %v", err)
		}
		if r.Cycles < 0 {
			t.Fatal("negative cycles")
		}
	})
}

// totalOps bounds fuzz cost.
func totalOps(w *run.Workload) int {
	// The trace Body closes over the op lists; re-derive a cheap bound
	// from the iteration count (each iteration has at most a handful of
	// ops after validation, but pathological inputs could be long).
	return w.Iterations(0) * 8
}

// totalElems bounds the per-element tables an execution allocates: an
// accepted trace may declare arrays of many gigabytes, and mutating the
// oversized seed reaches such sizes within seconds.
func totalElems(w *run.Workload) int {
	n := 0
	for _, a := range w.Arrays {
		n += a.Elems
	}
	return n
}

// FuzzParseNeverPanicsOnText drives the parser with mutated text from a
// valid document.
func FuzzParseNeverPanicsOnText(f *testing.F) {
	f.Add(sample)
	f.Fuzz(func(t *testing.T, doc string) {
		Parse(strings.NewReader(doc)) //nolint:errcheck // must not panic
	})
}
