package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"specrt/internal/core"
	"specrt/internal/harness"
	"specrt/internal/loops"
	"specrt/internal/run"
)

// expectedReport is the committed output of `specrt -scale default all`.
const expectedReport = "results/default-scale.txt"

// coldMismatch is the exit status of a cold child whose report differs.
const coldMismatch = 3

// regenerate produces the default-scale report exactly as
// `specrt -scale default -parallel 1 all` does, on a fresh harness (the
// memo is per harness, so nothing carries over between calls).
func regenerate() ([]byte, *harness.Harness) {
	h := harness.NewParallel(harness.Default, 1)
	var buf bytes.Buffer
	h.All(&buf)
	h.PrintProtoStats(&buf)
	core.PrintStateCosts(&buf, 16, 1<<16)
	h.Ablations(&buf)
	return buf.Bytes(), h
}

// figureSteps is regenerate broken into the exported printers All and
// Ablations call, in output order. With one worker the bytes are the
// same: All's warm-up and Ablations' section buffers only reorder work.
func figureSteps(h *harness.Harness) []struct {
	name  string
	print func(io.Writer)
} {
	return []struct {
		name  string
		print func(io.Writer)
	}{
		{"harness.latencies", func(w io.Writer) { harness.PrintLatencies(w) }},
		{"harness.fig11", func(w io.Writer) { h.PrintFig11(w) }},
		{"harness.fig12", func(w io.Writer) { h.PrintFig12(w) }},
		{"harness.fig13", func(w io.Writer) { h.PrintFig13(w) }},
		{"harness.fig14", func(w io.Writer) { h.PrintFig14(w) }},
		{"harness.protostats", func(w io.Writer) { h.PrintProtoStats(w) }},
		{"harness.statecosts", func(w io.Writer) { core.PrintStateCosts(w, 16, 1<<16) }},
		{"harness.ablation.trackchunks", func(w io.Writer) { h.PrintAblationTrackChunks(w) }},
		{"harness.ablation.contention", func(w io.Writer) { h.PrintAblationContention(w) }},
		{"harness.ablation.bitgrain", func(w io.Writer) { h.PrintAblationBitGranularity(w) }},
		{"harness.ablation.readin", func(w io.Writer) { h.PrintAblationReadIn(w) }},
		{"harness.ablation.epochs", func(w io.Writer) { h.PrintAblationEpochs(w) }},
		{"harness.ablation.sparsebackup", func(w io.Writer) { h.PrintAblationSparseBackup(w) }},
		{"harness.ablation.privgrain", func(w io.Writer) { h.PrintAblationPrivGranularity(w) }},
		{"harness.ablation.adaptive", func(w io.Writer) { h.PrintAblationAdaptive(w) }},
		{"harness.ablation.writestall", func(w io.Writer) { h.PrintAblationWriteStall(w) }},
		{"harness.ablation.diroccupancy", func(w io.Writer) { h.PrintAblationDirectoryOccupancy(w) }},
		{"harness.ablation.meshcontention", func(w io.Writer) { h.PrintAblationMeshContention(w) }},
	}
}

// regenerateTraced is regenerate with one span per printer.
func (b *bench) regenerateTraced(parent int) ([]byte, *harness.Harness) {
	h := harness.NewParallel(harness.Default, 1)
	var buf bytes.Buffer
	for _, s := range figureSteps(h) {
		b.tr.do(s.name, parent, func() { s.print(&buf) })
	}
	return buf.Bytes(), h
}

// coldFiguresChild is the body of a child process: one cold
// regeneration, compared against the committed report.
func coldFiguresChild() error {
	want, err := os.ReadFile(expectedReport)
	if err != nil {
		return err
	}
	if got, _ := regenerate(); !bytes.Equal(got, want) {
		fmt.Fprintf(os.Stderr, "perfbench: cold regeneration differs from %s\n", expectedReport)
		os.Exit(coldMismatch)
	}
	return nil
}

// runFigures times the default-scale report. Set-up is the cold first
// regeneration a `specrt all` user pays: once in this process, which
// also warms it for the passes, and once in each extra child process.
// Every timed pass regenerates on a fresh one-worker harness.
func runFigures(b *bench) error {
	want, err := os.ReadFile(expectedReport)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	b.info["workers"] = 1
	err = b.setup(func(i int) error {
		if i == 0 {
			got, _ := regenerate()
			b.check(bytes.Equal(got, want), "cold regeneration differs from %s", expectedReport)
			return nil
		}
		cmd := exec.Command(self, "-cold-figures")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) && exit.ExitCode() == coldMismatch {
			b.check(false, "cold child %d report differs from %s", i, expectedReport)
			return nil
		}
		b.check(err == nil, "cold child %d: %v", i, err)
		return nil
	})
	if err != nil {
		return err
	}

	var last *harness.Harness
	var cells []float64
	secs, _, err := b.passes(3, func(i, span int) error {
		var got []byte
		if b.tr.on {
			got, last = b.regenerateTraced(span)
		} else {
			got, last = regenerate()
		}
		b.check(bytes.Equal(got, want), "pass %d report differs from %s", i, expectedReport)
		cells = append(cells, float64(last.CellsSimulated()))
		return nil
	})
	if err != nil {
		return err
	}
	b.recordPasses(secs, true)
	if !b.tr.on {
		return nil
	}
	for _, s := range figureSteps(last) {
		b.layer[s.name+"_s"] = quantile(b.tr.seconds(s.name), 0.5)
	}
	b.layer["harness.cells"] = quantile(cells, 0.5)
	return b.modeCells(last)
}

// modeCells runs the four paper loops at paper processor counts under
// each scheme, with the config harness.Result builds, and checks each
// report against the memoized cell of the last pass's harness.
func (b *bench) modeCells(h *harness.Harness) error {
	rec := newLayerRecorder(b)
	for _, mode := range run.Modes {
		var modeSecs float64
		for _, name := range harness.LoopNames {
			procs := loops.Procs(name)
			if mode == run.Serial {
				procs = 1
			}
			w, maxExec, err := harness.WorkloadByName(name, harness.Default)
			if err != nil {
				return err
			}
			cfg := run.Config{Procs: procs, Mode: mode, Contention: true, MaxExecutions: maxExec}
			if err := rec.admission(w, cfg); err != nil {
				return err
			}
			var e execution
			b.tr.do("run.mode."+strings.ToLower(mode.String()), 0, func() { e, err = execute(w, cfg) })
			if err != nil {
				return err
			}
			rec.timed(e, 0)
			rec.counts(e.res)
			modeSecs += e.host.Seconds()
			got, err := rec.encoded(e.res)
			if err != nil {
				return err
			}
			memo, err := encode(h.Result(name, mode, procs))
			if err != nil {
				return err
			}
			b.check(bytes.Equal(got, memo), "%s %v/%d report differs from the harness cell", name, mode, procs)
		}
		b.layer["run.mode_s."+strings.ToLower(mode.String())] = modeSecs
	}
	rec.finish()
	return nil
}
