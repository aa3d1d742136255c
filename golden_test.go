package specrt_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"specrt/internal/core"
	"specrt/internal/harness"
)

var update = flag.Bool("update", false, "rewrite results/*.txt from the current simulator")

// TestCommittedResults regenerates the committed reports in process, the
// way specrt prints them at default scale, and requires them byte for
// byte: a difference means the timing model changed. A change that does
// so on purpose rewrites the files with
//
//	go test -run TestCommittedResults -update .
func TestCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the default-scale reports")
	}
	for _, tc := range []struct {
		file   string
		report func(h *harness.Harness, w io.Writer)
	}{
		{"results/default-scale.txt", func(h *harness.Harness, w io.Writer) { // specrt all
			h.All(w)
			h.PrintProtoStats(w)
			core.PrintStateCosts(w, 16, 1<<16)
			h.Ablations(w)
		}},
		{"results/adaptive.txt", func(h *harness.Harness, w io.Writer) { h.PrintAblationDirectors(w, 0) }},
		{"results/wide.txt", func(h *harness.Harness, w io.Writer) { h.PrintAblationWide(w, harness.WideProcsUpTo(0)) }},
	} {
		t.Run(strings.TrimSuffix(strings.TrimPrefix(tc.file, "results/"), ".txt"), func(t *testing.T) {
			var got bytes.Buffer
			tc.report(harness.New(harness.Default), &got)
			if *update {
				if err := os.WriteFile(tc.file, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if line, g, w, ok := firstDiff(got.Bytes(), want); !ok {
				t.Fatalf("%s differs from the simulator's output at line %d:\n got: %q\nwant: %q\n(rerun with -update only if the timing model changed on purpose)",
					tc.file, line, g, w)
			}
		})
	}
}

// firstDiff compares a and b line by line and returns the first line that
// differs, 1-based, with its text on either side; ok reports equality.
func firstDiff(a, b []byte) (line int, la, lb string, ok bool) {
	if bytes.Equal(a, b) {
		return 0, "", "", true
	}
	as, bs := strings.SplitAfter(string(a), "\n"), strings.SplitAfter(string(b), "\n")
	for i := 0; ; i++ {
		var x, y string
		if i < len(as) {
			x = as[i]
		}
		if i < len(bs) {
			y = bs[i]
		}
		if x != y {
			return i + 1, x, y, false
		}
	}
}
