package run

import (
	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/lrpd"
)

// ExecuteObserved simulates every execution of w under cfg on one
// session, as Execute does for a run without a director or
// AdaptiveAfter, and hands observe each batch of instructions a source
// gives a processor, in every phase, with the session's controller (nil
// outside HW) as it stands when the batch is handed out.
func ExecuteObserved(w *Workload, cfg Config, observe func(ctl *core.Controller, batch []cpu.Instr)) (*Result, error) {
	if err := validate(w, cfg); err != nil {
		return nil, err
	}
	s := newSession(w, cfg)
	defer s.m.Release()
	for _, srcs := range [][]cpu.Source{s.loopSrc, s.phaseSrc} {
		for p, src := range srcs {
			srcs[p] = func(pr *cpu.Proc) []cpu.Instr {
				b := src(pr)
				observe(s.ctl, b)
				return b
			}
		}
	}
	execs := w.Executions
	if cfg.MaxExecutions > 0 && cfg.MaxExecutions < execs {
		execs = cfg.MaxExecutions
	}
	res := &Result{Verdicts: make(map[string]lrpd.Verdict)}
	for exec := range execs {
		s.runOne(exec, res)
	}
	return res, nil
}

// BackupRestore builds a session of w under cfg and returns a func that
// runs one backup phase and then one restore phase on it, and a func
// that releases the session's machine.
func BackupRestore(w *Workload, cfg Config) (phases, release func()) {
	s := newSession(w, cfg)
	return func() {
		s.runPhase(phaseBackup)
		s.runPhase(phaseRestore)
	}, s.m.Release
}
