package core

import (
	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Non-privatization algorithm (§3.2, Figures 4, 6, 7). Every element of
// the array under test must end the loop read-only (ROnly) or accessed by
// a single processor (NoShr = not shared); any other pattern FAILs. All
// state-changing transactions serialize at the home directory, like the
// base coherence transactions; the First_update and ROnly_update messages
// that clean-line tag changes send to the home do not stall the processor
// and therefore race, with the resolution arms of Figure 7.

// npRead implements "Processor read" (Figure 6-(a)) and, on a miss, "Home
// receives read request" (Figure 6-(b)). A hit that changes a clean
// line's tag sends First_update or ROnly_update to the home; a tag change
// on a dirty line tells the directory nothing until writeback.
func (c *Controller) npRead(arr *Array, p, e int, a mem.Addr) (sim.Time, error) {
	e = c.grain(arr.Region, e)
	wi := wordIndexOf(arr.Region, e, c.M.LineBytes())

	fr, cc := c.M.Lookup(p, a)
	w := wordOf(cc, fr, wi)
	failArm := w.First() == abits.FirstOther && w.NoShr()
	claim := w.First() == abits.FirstNone || w.First() == abits.FirstOther && !w.ROnly()
	c.Stats.NonPrivReads++
	if fr, lat := c.M.Take(p, a, fr, cc); fr != nil {
		// Only the claiming arms write the tag; any other arm found the
		// word set, so the line already has bits.
		switch {
		case failArm:
			return lat, c.fail(FailReadOfWritten, arr, e, p, c.curIter[p])
		case w.First() == abits.FirstNone:
			bits := c.M.Procs[p].L1.EnsureBits(fr)
			bits[wi] = w.WithFirst(abits.FirstOwn)
			if fr.State() != cache.Dirty {
				c.M.SyncBitsToL2(p, a, bits)
				c.sendFirstUpdate(arr, p, e)
			}
		case claim:
			bits := c.M.Procs[p].L1.EnsureBits(fr)
			bits[wi] = w.WithROnly(true)
			if fr.State() != cache.Dirty {
				c.M.SyncBitsToL2(p, a, bits)
				c.sendROnlyUpdate(arr, p, e)
			}
		}
		return lat, nil
	}

	// Miss: the read request is serviced at the home directory
	// (Figure 6-(b)). A dirty third-node copy is written back first and
	// its tag state merged into the directory.
	lat, err := c.M.FetchRead(p, a, func(wb *cache.Line, wbOwner int) ([]abits.Word, error) {
		line := c.M.LineAddr(a)
		if wb != nil {
			if f := c.npMergeLine(arr, wbOwner, line, wb.Bits); f != nil {
				return nil, f
			}
		}
		first, noShr, rOnly := arr.npGet(e)
		switch {
		case first >= 0 && first != p && noShr:
			return nil, c.fail(FailReadOfWritten, arr, e, p, c.curIter[p])
		case first < 0:
			arr.npSet(e, p, noShr, rOnly)
		case first != p && !rOnly:
			arr.npSet(e, first, noShr, true)
		}
		return c.npLineBits(arr, p, line), nil
	})
	return lat, err
}

// npWrite implements "Processor write" (Figure 6-(c)) and, at the home,
// "Home receives write request" (Figure 6-(d)). A dirty hit whose tag
// cannot FAIL becomes OWN+NoShr locally, and the directory learns of it
// at writeback.
func (c *Controller) npWrite(arr *Array, p, e int, a mem.Addr) (sim.Time, error) {
	e = c.grain(arr.Region, e)
	wi := wordIndexOf(arr.Region, e, c.M.LineBytes())
	procLat := c.M.Cfg.Lat.L1Hit // writes do not stall the processor

	fr, cc := c.M.Lookup(p, a)
	w := wordOf(cc, fr, wi)
	failArm := w.First() == abits.FirstOther || w.ROnly()
	c.Stats.NonPrivWrites++
	if fr, _ := c.M.Take(p, a, fr, cc); fr != nil {
		bits := c.M.Procs[p].L1.EnsureBits(fr)
		if failArm {
			return procLat, c.fail(FailWriteOfShared, arr, e, p, c.curIter[p])
		}
		if fr.State() == cache.Clean {
			// Upgrade: the write request is serviced at the home
			// (Figure 6-(d)); its reply carries fresh tag state.
			lat, err := c.M.FetchWrite(p, a, c.npHomeWrite(arr, p, e, a))
			procLat = c.M.WriteProcLatency(lat)
			if err != nil {
				return procLat, err
			}
			fr = c.M.Procs[p].L1.Lookup(c.M.LineAddr(a))
			bits = c.M.Procs[p].L1.EnsureBits(fr)
			w = bits[wi]
		}
		// tag.First = OWN, tag.NoShr = 1; the line is dirty, so there
		// is no need to tell the directory.
		bits[wi] = w.WithFirst(abits.FirstOwn).WithNoShr(true)
		return procLat, nil
	}

	lat, err := c.M.FetchWrite(p, a, c.npHomeWrite(arr, p, e, a))
	return c.M.WriteProcLatency(lat), err
}

// npHomeWrite builds the home-side visit for a write request
// (Figure 6-(d)).
func (c *Controller) npHomeWrite(arr *Array, p, e int, a mem.Addr) machine.HomeVisitFn {
	return func(wb *cache.Line, wbOwner int) ([]abits.Word, error) {
		line := c.M.LineAddr(a)
		if wb != nil {
			if f := c.npMergeLine(arr, wbOwner, line, wb.Bits); f != nil {
				return nil, f
			}
		}
		first, _, rOnly := arr.npGet(e)
		if (first >= 0 && first != p) || rOnly {
			return nil, c.fail(FailWriteOfShared, arr, e, p, c.curIter[p])
		}
		arr.npSet(e, p, true, rOnly)
		return c.npLineBits(arr, p, line), nil
	}
}

// npMergeLine updates the directory state from the tag state of all the
// words of a dirty line (Figures 6-(b), 6-(d), 6-(e)) and checks the
// merged state for conflicts. The conflict check closes a window the
// literal Figure 6/7 pseudo-code leaves open: if a processor's write
// turns a line dirty before a slower processor's First_update reaches
// the home, the dependence materializes only when the dirty tags meet
// the directory state — at this merge. An element that ends up both
// not-shared (written exclusively by one processor) and read-only-shared
// (read by a non-First processor) was written by one processor and read
// by another: a dependence.
func (c *Controller) npMergeLine(arr *Array, owner int, line mem.Addr, bits []abits.Word) *Failure {
	if bits == nil || owner < 0 {
		return nil
	}
	lb := c.M.LineBytes()
	lo, hi := elemsInLine(arr.Region, line, lb)
	var fail *Failure
	for e := lo; e < hi; e++ {
		w := bits[wordIndexOf(arr.Region, e, lb)]
		first, noShr, rOnly := arr.npGet(e)
		// Tag state with First == OTHER merely mirrors directory state
		// the cache copied at fill time; only First == OWN tags carry
		// new claims by this line's owner.
		switch {
		case w.First() == abits.FirstOwn && w.NoShr():
			// Owner wrote the element while holding the line dirty.
			if (first >= 0 && first != owner) || rOnly {
				fail = c.fail(FailMergeConflict, arr, e, owner, c.curIter[owner])
			}
			arr.npSet(e, owner, true, rOnly)
		case w.First() == abits.FirstOwn:
			// Owner read the element first (its claim may have raced).
			switch {
			case first < 0:
				first = owner
			case first != owner:
				if noShr {
					fail = c.fail(FailMergeConflict, arr, e, owner, c.curIter[owner])
				}
				rOnly = true
			}
			if w.ROnly() {
				// The owner also observed another reader.
				rOnly = true
				if noShr {
					fail = c.fail(FailMergeConflict, arr, e, owner, c.curIter[owner])
				}
			}
			arr.npSet(e, first, noShr, rOnly)
		case w.First() == abits.FirstOther && w.ROnly() && !w.NoShr():
			// The owner read an element first accessed by another
			// processor while the line was dirty (no update message was
			// sent). If the element was written, that is a dependence.
			if noShr {
				fail = c.fail(FailMergeConflict, arr, e, owner, c.curIter[owner])
			}
			arr.npSet(e, first, noShr, true)
		}
	}
	return fail
}

// npLineBits copies directory state to tag state for all the words in the
// line, from requester p's point of view.
func (c *Controller) npLineBits(arr *Array, p int, line mem.Addr) []abits.Word {
	lb := c.M.LineBytes()
	bits := c.scratchLine()
	lo, hi := elemsInLine(arr.Region, line, lb)
	for e := lo; e < hi; e++ {
		first, noShr, rOnly := arr.npGet(e)
		var w abits.Word
		switch {
		case first < 0:
			w = w.WithFirst(abits.FirstNone)
		case first == p:
			w = w.WithFirst(abits.FirstOwn)
		default:
			w = w.WithFirst(abits.FirstOther)
		}
		w = w.WithNoShr(noShr).WithROnly(rOnly)
		bits[wordIndexOf(arr.Region, e, lb)] = w
	}
	return bits
}

// sendFirstUpdate sends a First_update for element e to the home
// directory without stalling the processor. The home-side handler is
// Figure 7-(f); a lost race bounces a First_update_fail back to the cache
// (Figure 7-(g)).
func (c *Controller) sendFirstUpdate(arr *Array, p, e int) {
	c.Stats.FirstUpdates++
	c.M.SendToHomeArg(p, arr.Region.ElemAddr(e), runFirstUpdate, c.getSig(arr, p, e, 0))
}

// sendFirstUpdateFail bounces a First_update back to processor p
// (Figure 7-(g)): the cache learns another processor was first.
func (c *Controller) sendFirstUpdateFail(arr *Array, p, e int) {
	c.Stats.FirstUpdateFails++
	gen := c.gen
	addr := arr.Region.ElemAddr(e)
	c.M.SendToProc(p, addr, func() error {
		if c.gen != gen {
			return nil
		}
		line := c.M.LineAddr(addr)
		wi := wordIndexOf(arr.Region, e, c.M.LineBytes())
		bits := c.M.LineBits(p, line)
		if bits == nil {
			return nil // line displaced; the directory is authoritative
		}
		w := bits[wi]
		if w.First() == abits.FirstOwn && w.NoShr() {
			// This processor read and then wrote the element before
			// learning it was not First.
			return c.fail(FailTwoFirstUpdates, arr, e, p, c.curIter[p])
		}
		bits[wi] = w.WithFirst(abits.FirstOther).WithROnly(true)
		return nil
	})
}

// sendROnlyUpdate sends a ROnly_update to the home (handler: Figure
// 7-(h)). A second concurrent ROnly_update is plainly ignored.
func (c *Controller) sendROnlyUpdate(arr *Array, p, e int) {
	c.Stats.ROnlyUpdates++
	c.M.SendToHomeArg(p, arr.Region.ElemAddr(e), runROnlyUpdate, c.getSig(arr, p, e, 0))
}
