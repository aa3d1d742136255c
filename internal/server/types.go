package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"specrt/internal/directory"
	"specrt/internal/harness"
	"specrt/internal/interconnect"
	"specrt/internal/mem"
	"specrt/internal/policy"
	"specrt/internal/run"
	"specrt/internal/sched"
)

// JobRequest is the submission body: the sweep axes the evaluation
// varies, all by name so requests are stable text. Unset optional
// fields take the simulator's defaults (the paper's machine).
type JobRequest struct {
	Workload  string `json:"workload"`            // Ocean | P3m | Adm | Track
	Mode      string `json:"mode"`                // serial | ideal | sw | hw
	Procs     int    `json:"procs"`               // processor count
	Topology  string `json:"topology,omitempty"`  // ideal | bus | crossbar | mesh | mesh:WxH
	Placement string `json:"placement,omitempty"` // round-robin | blocked | local
	DirMode   string `json:"dirmode,omitempty"`   // full-map | coarse
	// Sched overrides the workload's preferred schedule for the mode:
	// "static", "dynamic:CHUNK" or "block-cyclic:CHUNK".
	Sched string `json:"sched,omitempty"`
	// MaxExecutions caps simulated loop executions (0 = the server
	// scale's cap).
	MaxExecutions int `json:"maxexec,omitempty"`
	// Contention toggles the queueing contention model; omitted means
	// on (the harness default for every figure cell).
	Contention *bool `json:"contention,omitempty"`
	// Policy switches the adaptive speculation layer on ("adaptive");
	// omitted or "off" runs the mode statically, as ever.
	Policy string `json:"policy,omitempty"`
	// Director picks the adaptive decision procedure: "static",
	// "threshold" or "cost". Requires Policy "adaptive".
	Director string `json:"director,omitempty"`
}

// parseSched parses the Sched field.
func parseSched(s string) (*sched.Config, error) {
	if s == "" {
		return nil, nil
	}
	name, chunkStr, hasChunk := strings.Cut(s, ":")
	var cfg sched.Config
	switch name {
	case "static":
		cfg.Kind = sched.Static
	case "dynamic":
		cfg.Kind = sched.Dynamic
	case "block-cyclic":
		cfg.Kind = sched.BlockCyclic
	default:
		return nil, fmt.Errorf("unknown schedule %q (static|dynamic:N|block-cyclic:N)", s)
	}
	if hasChunk {
		if _, err := fmt.Sscanf(chunkStr, "%d", &cfg.Chunk); err != nil || cfg.Chunk <= 0 {
			return nil, fmt.Errorf("bad schedule chunk in %q", s)
		}
	}
	return &cfg, nil
}

// Spec resolves the request into a harness job spec, validating every
// named field. The resulting run.Config is canonical input for
// JobSpec.Key, so two requests that differ only in spelling (e.g.
// "hw" vs "HW") produce the same cache key.
func (jr JobRequest) Spec() (harness.JobSpec, error) {
	var zero harness.JobSpec
	mode, err := run.ModeByName(jr.Mode)
	if err != nil {
		return zero, err
	}
	ncfg, err := interconnect.ParseSpec(orDefault(jr.Topology, "ideal"))
	if err != nil {
		return zero, err
	}
	place, err := mem.PlacementByName(jr.Placement)
	if err != nil {
		return zero, err
	}
	dirMode, err := directory.ModeByName(jr.DirMode)
	if err != nil {
		return zero, err
	}
	schedOverride, err := parseSched(jr.Sched)
	if err != nil {
		return zero, err
	}
	contention := true
	if jr.Contention != nil {
		contention = *jr.Contention
	}
	pol, err := policy.KindByName(jr.Policy)
	if err != nil {
		return zero, err
	}
	director, err := policy.DirectorByName(jr.Director)
	if err != nil {
		return zero, err
	}
	return harness.JobSpec{
		Workload: jr.Workload,
		Config: run.Config{
			Procs:         jr.Procs,
			Mode:          mode,
			Contention:    contention,
			SchedOverride: schedOverride,
			MaxExecutions: jr.MaxExecutions,
			Topology:      ncfg.Kind,
			MeshW:         ncfg.MeshW,
			MeshH:         ncfg.MeshH,
			Placement:     place,
			DirMode:       dirMode,
			Policy:        pol,
			Director:      director,
		},
	}, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
}

// StatusResponse answers GET /v1/jobs/{id} (and SSE events, minus
// Result). Result holds the raw encoded stats.Report once done.
type StatusResponse struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}
