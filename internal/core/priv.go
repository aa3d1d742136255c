package core

import (
	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Privatization algorithm with read-in/copy-out (§3.3, Figures 8, 9).
// Each processor works on a private copy of the array under test. The
// shared directory keeps, per element, the highest read-first iteration
// executed so far (MaxR1st) and the lowest writing iteration (MinW); the
// test FAILs whenever MaxR1st > MinW. The private directories keep
// PMaxR1st/PMaxW so that displaced lines can still be classified, and the
// cache tags keep the per-iteration Read1st/Write bits, cleared at the
// start of each iteration.

// pvRead implements "Processor read" (Figure 8-(a)) with the private-
// directory read path (Figure 8-(c)) on a miss, including read-in. The
// first touch of a word in an iteration signals the directory.
func (c *Controller) pvRead(arr *Array, p, e int) (sim.Time, error) {
	iter := c.curIter[p]
	priv := arr.Priv[p]
	pa := priv.ElemAddr(e)
	wi := wordIndexOf(priv, e, c.M.LineBytes())

	fr, cc := c.M.Lookup(p, pa)
	w := wordOf(cc, fr, wi)
	first := !w.Read1st() && !w.Write()
	c.Stats.PrivReads++
	if fr, lat := c.M.Take(p, pa, fr, cc); fr != nil {
		if first {
			// Read-first in this iteration: mark the tag and signal
			// the private directory (Figure 8-(b)), which forwards a
			// read-first signal to the shared directory (8-(d)). Any
			// other hit found a word set, so its line has bits.
			bits := c.M.Procs[p].L1.EnsureBits(fr)
			bits[wi] = w.WithRead1st(true)
			if fr.State() != cache.Dirty {
				c.M.SyncBitsToL2(p, pa, bits)
			}
			arr.pMaxR1st.Set(arr.pIdx(p, e), iter)
			c.sendReadFirst(arr, p, e, iter)
		}
		return lat, nil
	}

	// Miss: the private directory services the read request
	// (Figure 8-(c)).
	readIn := false
	lat, err := c.M.FetchRead(p, pa, func(wb *cache.Line, wbOwner int) ([]abits.Word, error) {
		line := c.M.LineAddr(pa)
		bits := c.scratchLine()
		if c.pvLineUntouched(arr, p, line) {
			// A read-in: the protocol engine fetches the line of the
			// shared array. The shared directory checks the request
			// like a read-first (Figure 8-(e)).
			if !arr.RICO {
				// Without read-in support, reading a never-written
				// private element observes undefined data; the
				// conservative hardware reports the dependence.
				return nil, c.fail(FailReadFirstTooLate, arr, e, p, iter)
			}
			readIn = true
			c.Stats.ReadIns++
			if iter > arr.minW.Get(e) {
				return nil, c.fail(FailReadFirstTooLate, arr, e, p, iter)
			}
			if iter > arr.maxR1st.Get(e) {
				arr.maxR1st.Set(e, iter)
			}
			arr.pMaxR1st.Set(arr.pIdx(p, e), iter)
			bits[wi] = bits[wi].WithRead1st(true)
			return bits, nil
		}
		if arr.pMaxR1st.Get(arr.pIdx(p, e)) < iter && arr.pMaxW.Get(arr.pIdx(p, e)) < iter {
			// Read-first: signal the shared directory.
			arr.pMaxR1st.Set(arr.pIdx(p, e), iter)
			c.sendReadFirst(arr, p, e, iter)
			bits[wi] = bits[wi].WithRead1st(true)
		}
		return bits, nil
	})
	if readIn {
		lat += c.M.ChargeHomeTransfer(p, arr.Region.ElemAddr(e))
	}
	return lat, err
}

// pvWrite implements "Processor write" (Figure 9-(f)) with the private-
// directory write path (Figure 9-(h)) on a miss, including read-in for
// write.
func (c *Controller) pvWrite(arr *Array, p, e int) (sim.Time, error) {
	iter := c.curIter[p]
	priv := arr.Priv[p]
	pa := priv.ElemAddr(e)
	wi := wordIndexOf(priv, e, c.M.LineBytes())
	procLat := c.M.Cfg.Lat.L1Hit

	fr, cc := c.M.Lookup(p, pa)
	w := wordOf(cc, fr, wi)
	c.Stats.PrivWrites++
	if fr, _ := c.M.Take(p, pa, fr, cc); fr != nil {
		if fr.State() == cache.Clean {
			// Plain upgrade of the private line; the private copy has
			// no other sharers, so this cannot fail.
			lat, err := c.M.FetchWrite(p, pa, nil)
			procLat = c.M.WriteProcLatency(lat)
			if err != nil {
				return procLat, err
			}
			fr = c.M.Procs[p].L1.Lookup(c.M.LineAddr(pa))
		}
		if !w.Write() {
			// First write to the element in this iteration: signal
			// the private directory (Figure 9-(g)). The upgrade kept
			// the line's bits; a set word means the line has them.
			bits := c.M.Procs[p].L1.EnsureBits(fr)
			bits[wi] = w.WithWrite(true)
			c.pvPrivateFirstWrite(arr, p, e, iter)
		}
		return procLat, nil
	}

	// Miss: the private directory services the write request
	// (Figure 9-(h)).
	readIn := false
	wlat, err := c.M.FetchWrite(p, pa, func(wb *cache.Line, wbOwner int) ([]abits.Word, error) {
		line := c.M.LineAddr(pa)
		bits := c.scratchLine()
		pi := arr.pIdx(p, e)
		switch {
		case arr.pMaxW.Get(pi) == 0:
			if arr.pvWroteEver(p, e) {
				// Written in a completed epoch: MinW is already
				// saturated; no new signal needed.
				arr.pMaxW.Set(pi, iter)
				break
			}
			// First write to the element in the whole loop.
			if c.pvLineUntouched(arr, p, line) && arr.RICO {
				// Read-in for write: fetch the shared line so the
				// untouched words of the private line hold valid
				// data. The shared directory checks it like a
				// first-write (Figure 9-(j)).
				readIn = true
				c.Stats.ReadIns++
				if iter < arr.maxR1st.Get(e) {
					return nil, c.fail(FailWriteTooEarly, arr, e, p, iter)
				}
				if iter < arr.minW.Get(e) {
					arr.minW.Set(e, iter)
				}
			} else {
				c.sendFirstWrite(arr, p, e, iter)
			}
			arr.pMaxW.Set(pi, iter)
		case arr.pMaxW.Get(pi) < iter:
			// First write to the element in this iteration.
			arr.pMaxW.Set(pi, iter)
		}
		bits[wi] = bits[wi].WithWrite(true)
		return bits, nil
	})
	if readIn {
		c.M.ChargeHomeTransfer(p, arr.Region.ElemAddr(e))
	}
	return c.M.WriteProcLatency(wlat), err
}

// pvPrivateFirstWrite is the private directory's first-write handler
// (Figure 9-(g)): it keeps PMaxW current and forwards a first-write
// signal to the shared directory only for the very first write of this
// processor to the element.
func (c *Controller) pvPrivateFirstWrite(arr *Array, p, e int, iter int32) {
	pi := arr.pIdx(p, e)
	switch {
	case arr.pMaxW.Get(pi) == 0:
		arr.pMaxW.Set(pi, iter)
		if !arr.pvWroteEver(p, e) {
			c.sendFirstWrite(arr, p, e, iter)
		}
	case arr.pMaxW.Get(pi) < iter:
		arr.pMaxW.Set(pi, iter)
	}
}

// pvLineUntouched reports whether every element of the private line is
// still untouched by p (PMaxR1st == PMaxW == 0 for all the elements in the
// memory line), the read-in condition of Figures 8-(c) and 9-(h). Lines
// populated in a completed epoch stay touched (§3.3 overflow support).
func (c *Controller) pvLineUntouched(arr *Array, p int, line mem.Addr) bool {
	lo, hi := elemsInLine(arr.Priv[p], line, c.M.LineBytes())
	for e := lo; e < hi; e++ {
		pi := arr.pIdx(p, e)
		if arr.pMaxR1st.Get(pi) != 0 || arr.pMaxW.Get(pi) != 0 || arr.pvTouchedEver(p, e) {
			return false
		}
	}
	return true
}

// sendReadFirst sends a read-first signal to the shared directory
// (handler: Figure 8-(d)) without stalling the processor.
func (c *Controller) sendReadFirst(arr *Array, p, e int, iter int32) {
	c.Stats.ReadFirstSignals++
	c.M.SendToHomeArg(p, arr.Region.ElemAddr(e), runReadFirst, c.getSig(arr, p, e, iter))
}

// sendFirstWrite sends a first-write signal to the shared directory
// (handler: Figure 9-(i)) without stalling the processor.
func (c *Controller) sendFirstWrite(arr *Array, p, e int, iter int32) {
	c.Stats.FirstWriteSignals++
	c.M.SendToHomeArg(p, arr.Region.ElemAddr(e), runFirstWrite, c.getSig(arr, p, e, iter))
}

// CopyOut models the copy-out phase for a privatized array that is live
// after the loop: each processor transfers the lines it wrote back to the
// shared array (§3.3). It returns the latency processor p observes.
func (c *Controller) CopyOut(arr *Array, p int) sim.Time {
	if arr.Proto != Priv {
		return 0
	}
	lb := c.M.LineBytes()
	perLine := lb / arr.Region.ElemSize
	if perLine == 0 {
		perLine = 1
	}
	var lat sim.Time
	for e := 0; e < arr.Region.Elems; e += perLine {
		wrote := false
		for k := e; k < e+perLine && k < arr.Region.Elems; k++ {
			if arr.pMaxW.Get(arr.pIdx(p, k)) > 0 || arr.pvWroteEver(p, k) {
				wrote = true
				break
			}
		}
		if wrote {
			c.Stats.CopyOuts++
			lat += c.M.ChargeHomeTransfer(p, arr.Region.ElemAddr(e))
		}
	}
	return lat
}
