// Package trace loads workload descriptions from JSON, so loops can be
// simulated without writing Go (cmd/tracesim). A trace fully enumerates
// each iteration's accesses:
//
//	{
//	  "name": "myloop",
//	  "arrays": [
//	    {"name": "A", "elems": 256, "elemSize": 4, "test": "nonpriv"}
//	  ],
//	  "iterations": [
//	    [{"op": "compute", "cycles": 50},
//	     {"op": "load", "array": 0, "elem": 3},
//	     {"op": "store", "array": 0, "elem": 3}],
//	    ...
//	  ],
//	  "executions": 1,
//	  "sched": {"kind": "dynamic", "chunk": 4},
//	  "swProcWise": false
//	}
//
// test is one of "plain", "nonpriv", "priv", "priv-rico"; sched.kind is
// "static", "dynamic" or "blockcyclic" and applies to all parallel modes.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"specrt/internal/core"
	"specrt/internal/run"
	"specrt/internal/sched"
)

// File is the JSON document shape.
type File struct {
	Name       string      `json:"name"`
	Arrays     []ArrayDesc `json:"arrays"`
	Iterations [][]OpDesc  `json:"iterations"`
	Executions int         `json:"executions"`
	Sched      *SchedDesc  `json:"sched"`
	SWProcWise bool        `json:"swProcWise"`
}

// ArrayDesc describes one array.
type ArrayDesc struct {
	Name     string `json:"name"`
	Elems    int    `json:"elems"`
	ElemSize int    `json:"elemSize"`
	Test     string `json:"test"`
	LiveOut  bool   `json:"liveOut"`
}

// OpDesc is one instruction of an iteration body.
type OpDesc struct {
	Op     string `json:"op"` // "load", "store", "compute"
	Array  int    `json:"array"`
	Elem   int    `json:"elem"`
	Cycles int64  `json:"cycles"`
}

// SchedDesc selects the schedule for all parallel modes.
type SchedDesc struct {
	Kind  string `json:"kind"`
	Chunk int    `json:"chunk"`
}

// Parse reads a JSON trace and builds the workload.
func Parse(r io.Reader) (*run.Workload, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return Build(&f)
}

// Build validates a File and constructs the workload.
func Build(f *File) (*run.Workload, error) {
	if f.Name == "" {
		f.Name = "trace"
	}
	if len(f.Arrays) == 0 {
		return nil, fmt.Errorf("trace: no arrays")
	}
	if len(f.Iterations) == 0 {
		return nil, fmt.Errorf("trace: no iterations")
	}
	if f.Executions <= 0 {
		f.Executions = 1
	}

	arrays := make([]run.ArraySpec, len(f.Arrays))
	for i, a := range f.Arrays {
		spec := run.ArraySpec{
			Name:     a.Name,
			Elems:    a.Elems,
			ElemSize: a.ElemSize,
			LiveOut:  a.LiveOut,
		}
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("A%d", i)
		}
		if a.Elems <= 0 {
			return nil, fmt.Errorf("trace: array %q: elems must be positive", spec.Name)
		}
		switch a.ElemSize {
		case 4, 8, 16:
		default:
			return nil, fmt.Errorf("trace: array %q: elemSize must be 4, 8 or 16", spec.Name)
		}
		switch a.Test {
		case "", "plain":
			spec.Test = core.Plain
		case "nonpriv":
			spec.Test = core.NonPriv
		case "priv":
			spec.Test = core.Priv
		case "priv-rico":
			spec.Test = core.Priv
			spec.RICO = true
		default:
			return nil, fmt.Errorf("trace: array %q: unknown test %q", spec.Name, a.Test)
		}
		arrays[i] = spec
	}

	for it, body := range f.Iterations {
		for k, op := range body {
			switch op.Op {
			case "compute":
				if op.Cycles < 0 {
					return nil, fmt.Errorf("trace: iter %d op %d: negative cycles", it, k)
				}
			case "load", "store":
				if op.Array < 0 || op.Array >= len(arrays) {
					return nil, fmt.Errorf("trace: iter %d op %d: array %d out of range", it, k, op.Array)
				}
				if op.Elem < 0 || op.Elem >= arrays[op.Array].Elems {
					return nil, fmt.Errorf("trace: iter %d op %d: elem %d out of range", it, k, op.Elem)
				}
			default:
				return nil, fmt.Errorf("trace: iter %d op %d: unknown op %q", it, k, op.Op)
			}
		}
	}

	var sc sched.Config
	if f.Sched != nil {
		switch f.Sched.Kind {
		case "", "static":
			sc.Kind = sched.Static
		case "dynamic":
			sc.Kind = sched.Dynamic
		case "blockcyclic":
			sc.Kind = sched.BlockCyclic
		default:
			return nil, fmt.Errorf("trace: unknown schedule %q", f.Sched.Kind)
		}
		sc.Chunk = f.Sched.Chunk
	}

	iters := f.Iterations
	w := &run.Workload{
		Name:       f.Name,
		Executions: f.Executions,
		Iterations: func(int) int { return len(iters) },
		Arrays:     arrays,
		Body: func(exec, iter int, c *run.Ctx) {
			for _, op := range iters[iter] {
				switch op.Op {
				case "compute":
					c.Compute(op.Cycles)
				case "load":
					c.Load(op.Array, op.Elem)
				case "store":
					c.Store(op.Array, op.Elem)
				}
			}
		},
		IdealSched: sc,
		HWSched:    sc,
		SWSched:    sc,
		SWProcWise: f.SWProcWise,
	}
	if f.SWProcWise {
		w.SWSched = sched.Config{Kind: sched.Static}
	}
	// A trace must run in every mode on two processors, the smallest
	// parallel machine. SW lays out the most simulated memory there (the
	// arrays, their backups, private copies and shadows), so its layout
	// is the one checked against the caches' address bound.
	if err := run.Validate(w, run.Config{Procs: 2, Mode: run.SW}); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return w, nil
}
