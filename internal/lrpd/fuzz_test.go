package lrpd

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzTest decodes a byte stream into an access trace and checks the
// LRPD invariants: no panics, verdict monotonicity, and agreement with
// the serial-execution oracle for the read-in variant.
func FuzzTest(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x02})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		const elems = 8
		var ops []Op
		iter := 0
		for i, b := range data {
			if i > 64 {
				break
			}
			if b&0x40 != 0 {
				iter++ // serial order: iterations only advance
			}
			ops = append(ops, Op{
				Iter:  iter,
				Elem:  int(b % elems),
				Write: b&0x80 != 0,
			})
		}
		noPriv := Test(elems, ops, false).Verdict
		priv := Test(elems, ops, true).Verdict
		readIn := TestWithReadIn(elems, ops).Verdict
		// Monotonicity: each extension can only admit more loops.
		if noPriv == DoallNoPriv && priv == NotParallel {
			t.Fatalf("priv weaker than no-priv: %v -> %v", noPriv, priv)
		}
		if priv != NotParallel && readIn == NotParallel {
			t.Fatalf("read-in weaker than priv: %v -> %v", priv, readIn)
		}
		// Oracle agreement (trace is in serial order by construction).
		want := Oracle(elems, ops) != NotParallel
		got := readIn != NotParallel
		if got != want {
			t.Fatalf("read-in verdict %v disagrees with oracle (parallel=%t) for %v",
				readIn, want, ops)
		}
	})
}

// FuzzMarkIteration decodes a byte stream into accesses of interleaved
// iterations and checks that the order in which iterations are marked
// cannot change the shadows: marking the trace with Mark (groups in
// first-seen order) and marking each group with MarkIteration in reverse
// first-seen order leave identical Ar/Aw/Anp/Atw/MinW/MaxR1st, and so do
// the two ways of marking processor chunks as super-iterations.
func FuzzMarkIteration(f *testing.F) {
	f.Add(byte(2), []byte{0x00, 0x89, 0x12, 0x9b, 0x08, 0x21})
	f.Add(byte(0), []byte{})
	f.Add(byte(3), []byte{0xff, 0x3f, 0x80, 0x40, 0x01, 0xc8, 0x09, 0x38})
	f.Fuzz(func(t *testing.T, chunkRaw byte, data []byte) {
		const elems = 8
		if len(data) > 128 {
			data = data[:128]
		}
		// Bits 0-2 pick the element, 3-5 the iteration, 7 a write: the
		// iterations interleave in whatever order the bytes give.
		ops := make([]Op, len(data))
		for i, b := range data {
			ops[i] = Op{Iter: int(b>>3) & 7, Elem: int(b % elems), Write: b&0x80 != 0}
		}

		want := NewShadows(elems)
		want.Mark(ops)
		var order []int
		groups := map[int][]Op{}
		for _, op := range ops {
			if _, ok := groups[op.Iter]; !ok {
				order = append(order, op.Iter)
			}
			groups[op.Iter] = append(groups[op.Iter], op)
		}
		got := NewShadows(elems)
		for i := len(order) - 1; i >= 0; i-- {
			got.MarkIteration(order[i], groups[order[i]])
		}
		if diff := shadowsDiff(want, got); diff != "" {
			t.Fatalf("reverse first-seen order: %s\nops %v", diff, ops)
		}

		chunk := 1 + int(chunkRaw%4)
		chunkOf := func(iter int) int { return iter / chunk }
		pw := make([]Op, len(ops))
		for i, op := range ops {
			pw[i] = Op{Iter: chunkOf(op.Iter), Elem: op.Elem, Write: op.Write}
		}
		want = NewShadows(elems)
		want.Mark(pw)
		if diff := shadowsDiff(want, markByChunk(elems, ops, chunkOf)); diff != "" {
			t.Fatalf("chunks of %d iterations: %s\nops %v", chunk, diff, ops)
		}
	})
}

// shadowsDiff names the first shadow array in which a and b differ, or
// returns "".
func shadowsDiff(a, b *Shadows) string {
	for _, c := range []struct {
		name string
		x, y Bitset
	}{{"Ar", a.Ar, b.Ar}, {"Aw", a.Aw, b.Aw}, {"Anp", a.Anp, b.Anp}} {
		if !slices.Equal(c.x, c.y) {
			return fmt.Sprintf("%s %b != %b", c.name, c.x, c.y)
		}
	}
	if a.Atw != b.Atw {
		return fmt.Sprintf("Atw %d != %d", a.Atw, b.Atw)
	}
	if !slices.Equal(a.MinW, b.MinW) {
		return fmt.Sprintf("MinW %v != %v", a.MinW, b.MinW)
	}
	if !slices.Equal(a.MaxR1st, b.MaxR1st) {
		return fmt.Sprintf("MaxR1st %v != %v", a.MaxR1st, b.MaxR1st)
	}
	return ""
}
