package trace

import (
	"fmt"
	"strings"
	"testing"

	"specrt/internal/core"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/run"
	"specrt/internal/sched"
)

const sample = `{
  "name": "demo",
  "arrays": [
    {"name": "A", "elems": 64, "elemSize": 4, "test": "nonpriv"},
    {"name": "B", "elems": 8, "elemSize": 8, "test": "priv-rico", "liveOut": true}
  ],
  "iterations": [
    [{"op": "compute", "cycles": 50}, {"op": "store", "array": 0, "elem": 0}],
    [{"op": "load", "array": 1, "elem": 3}, {"op": "store", "array": 1, "elem": 3}]
  ],
  "sched": {"kind": "dynamic", "chunk": 1}
}`

func TestParseSample(t *testing.T) {
	w, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "demo" || w.Executions != 1 {
		t.Fatalf("header: %q %d", w.Name, w.Executions)
	}
	if w.Iterations(0) != 2 {
		t.Fatalf("iterations = %d", w.Iterations(0))
	}
	if w.Arrays[0].Test != core.NonPriv || w.Arrays[1].Test != core.Priv || !w.Arrays[1].RICO {
		t.Fatalf("array tests wrong: %+v", w.Arrays)
	}
	if !w.Arrays[1].LiveOut {
		t.Fatal("liveOut lost")
	}
	if w.HWSched.Kind != sched.Dynamic || w.HWSched.Chunk != 1 {
		t.Fatalf("sched = %+v", w.HWSched)
	}
}

func TestParsedWorkloadRuns(t *testing.T) {
	w, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	r := run.MustExecute(w, run.Config{Procs: 2, Mode: run.HW, Contention: true})
	if r.Failures != 0 {
		t.Fatalf("trace workload failed: %+v", r.FirstFailure)
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no arrays":    `{"iterations": [[]]}`,
		"no iters":     `{"arrays": [{"name":"A","elems":4,"elemSize":4}]}`,
		"bad test":     `{"arrays": [{"name":"A","elems":4,"elemSize":4,"test":"magic"}], "iterations": [[]]}`,
		"bad op":       `{"arrays": [{"name":"A","elems":4,"elemSize":4}], "iterations": [[{"op":"jump"}]]}`,
		"elem range":   `{"arrays": [{"name":"A","elems":4,"elemSize":4}], "iterations": [[{"op":"load","array":0,"elem":9}]]}`,
		"array range":  `{"arrays": [{"name":"A","elems":4,"elemSize":4}], "iterations": [[{"op":"load","array":2,"elem":0}]]}`,
		"neg cycles":   `{"arrays": [{"name":"A","elems":4,"elemSize":4}], "iterations": [[{"op":"compute","cycles":-1}]]}`,
		"bad sched":    `{"arrays": [{"name":"A","elems":4,"elemSize":4}], "iterations": [[]], "sched": {"kind":"magic"}}`,
		"unknown keys": `{"arrays": [{"name":"A","elems":4,"elemSize":4}], "iterations": [[]], "bogus": 1}`,
		"bad json":     `{`,
	}
	for name, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestDefaults(t *testing.T) {
	w, err := Parse(strings.NewReader(
		`{"arrays": [{"elems": 4, "elemSize": 4}], "iterations": [[{"op":"compute","cycles":1}]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "trace" {
		t.Fatalf("default name = %q", w.Name)
	}
	if w.Arrays[0].Name != "A0" {
		t.Fatalf("default array name = %q", w.Arrays[0].Name)
	}
	if w.Arrays[0].Test != core.Plain {
		t.Fatalf("default test = %v", w.Arrays[0].Test)
	}
	if w.HWSched.Kind != sched.Static {
		t.Fatalf("default sched = %v", w.HWSched.Kind)
	}
}

func TestProcWiseForcesStaticSW(t *testing.T) {
	doc := `{"arrays": [{"elems": 4, "elemSize": 4, "test": "nonpriv"}],
	         "iterations": [[{"op":"store","array":0,"elem":0}]],
	         "sched": {"kind":"dynamic","chunk":1}, "swProcWise": true}`
	w, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if w.SWSched.Kind != sched.Static {
		t.Fatal("processor-wise SW must force static scheduling")
	}
	if w.HWSched.Kind != sched.Dynamic {
		t.Fatal("HW schedule should keep the requested dynamic kind")
	}
}

func TestDetectsDependenceFromTrace(t *testing.T) {
	doc := `{"arrays": [{"name":"A","elems": 8, "elemSize": 4, "test": "nonpriv"}],
	         "iterations": [
	           [{"op":"store","array":0,"elem":3}],
	           [{"op":"load","array":0,"elem":3}]
	         ],
	         "sched": {"kind":"dynamic","chunk":1}}`
	w, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	r := run.MustExecute(w, run.Config{Procs: 2, Mode: run.HW, Contention: true})
	if r.Failures != 1 {
		t.Fatal("dependence in trace not detected")
	}
}

// A trace must fit under the caches' address bound on two processors in
// every mode. A plain array is laid out once: one that ends exactly at
// the bound (the address space starts one page up) parses, and one a line
// longer is an error naming the bound. A non-privatized array also gets
// a backup and two processors' shadows under SW, so half the bound is
// already too much. None is executed.
func TestParseAddressBound(t *testing.T) {
	limit := machine.DefaultConfig(2).L1.MaxAddr()
	want := fmt.Sprintf("%d GB address bound", limit>>30)
	doc := func(bytes uint64, test string) string {
		return fmt.Sprintf(`{"arrays":[{"elems":%d,"elemSize":4,"test":%q}],"iterations":[[]]}`, bytes/4, test)
	}
	fits := limit - mem.PageSize
	if _, err := Parse(strings.NewReader(doc(fits, "plain"))); err != nil {
		t.Fatalf("array ending at the bound rejected: %v", err)
	}
	for _, d := range []string{doc(fits+64, "plain"), doc(limit/2, "nonpriv")} {
		if _, err := Parse(strings.NewReader(d)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Parse = %v, want the %s", d, err, want)
		}
	}
}
