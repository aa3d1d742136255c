package core

import (
	"fmt"

	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Classify-without-performing probes for the execution fast path
// (internal/cpu), extending machine's plain-access classification to the
// speculative protocols. A speculative access is fast only when its hit
// path neither fails nor sends a deferred message to the home directory:
// it may still flip tag bits or update this processor's private
// directory — those are local, time-independent effects the fused
// perform step applies through the normal npRead/pvWrite/… code.
//
// The conditions below mirror the hit paths in nonpriv.go and priv.go
// case by case; anything not provably pure classifies slow and takes the
// stepped path, which is always correct.

// TryRead classifies and, when fast, performs a read in one pass.
// Addresses outside the armed arrays take machine.TryFastRead's fused
// lookup; armed addresses classify first (the speculative hit paths flip
// tag bits, so nothing may be performed until the access is known pure)
// and then run the normal protocol read, which cannot fail or send a
// message once classification passed.
func (c *Controller) TryRead(p int, a mem.Addr) (sim.Time, bool) {
	arr := c.lookupArmed(a)
	if arr == nil {
		return c.M.TryFastRead(p, a)
	}
	var ok bool
	if arr.Proto == NonPriv {
		ok = c.npClassifyRead(arr, p, a)
	} else {
		ok = c.pvClassifyRead(arr, p, a)
	}
	if !ok {
		return 0, false
	}
	lat, err := c.Read(p, a)
	if err != nil {
		// Classification promised a pure hit; failing here is a
		// classifier bug, and silently diverging from the stepped
		// schedule would corrupt results.
		panic(fmt.Sprintf("core: classified-fast read of %#x failed: %v", a, err))
	}
	return lat, true
}

// TryWrite is TryRead's store counterpart.
func (c *Controller) TryWrite(p int, a mem.Addr) (sim.Time, bool) {
	arr := c.lookupArmed(a)
	if arr == nil {
		return c.M.TryFastWrite(p, a)
	}
	var ok bool
	if arr.Proto == NonPriv {
		ok = c.npClassifyWrite(arr, p, a)
	} else {
		ok = c.pvClassifyWrite(arr, p, a)
	}
	if !ok {
		return 0, false
	}
	lat, err := c.Write(p, a)
	if err != nil {
		panic(fmt.Sprintf("core: classified-fast write of %#x failed: %v", a, err))
	}
	return lat, true
}

// lookupBits finds a in p's hierarchy without promoting or counting and
// returns the frame and the access-bit word for word index wi (zero when
// the line has no bit window yet, matching what EnsureBits would hand the
// perform step). An L2-only hit qualifies only when the perform step's L1
// promotion is purely local.
func (c *Controller) lookupBits(p int, a mem.Addr, wi int) (*cache.Frame, abits.Word) {
	pr := c.M.Procs[p]
	cc := pr.L1
	fr := cc.Lookup(a)
	if fr == nil {
		cc = pr.L2
		if fr = cc.Lookup(a); fr != nil && !c.M.PromoteIsLocal(p, a) {
			fr = nil
		}
	}
	if fr == nil {
		return nil, 0
	}
	var w abits.Word
	if bits := cc.Bits(fr); bits != nil {
		w = bits[wi]
	}
	return fr, w
}

// npClassifyRead mirrors npRead's hit path (Figure 6-(a)): the FAIL arm
// (First == OTHER with NoShr) and the clean-line arms that send
// First_update / ROnly_update messages classify slow; everything else —
// including bit flips on a dirty line, which tell the directory nothing —
// is pure.
func (c *Controller) npClassifyRead(arr *Array, p int, a mem.Addr) bool {
	e := c.grain(arr.Region, arr.Region.ElemIndex(a))
	wi := wordIndexOf(arr.Region, e, c.M.LineBytes())
	fr, w := c.lookupBits(p, a, wi)
	if fr == nil {
		return false
	}
	switch {
	case w.First() == abits.FirstOther && w.NoShr():
		return false // FAIL arm
	case w.First() == abits.FirstNone,
		w.First() == abits.FirstOther && !w.ROnly():
		if fr.State() != cache.Dirty {
			return false // clean-line tag change: update message to the home
		}
	}
	return true
}

// npClassifyWrite mirrors npWrite's hit path (Figure 6-(c)): fast only on
// a dirty hit whose tag cannot FAIL (First != OTHER, no ROnly); the tag
// becomes OWN+NoShr locally and the directory learns of it at writeback.
func (c *Controller) npClassifyWrite(arr *Array, p int, a mem.Addr) bool {
	e := c.grain(arr.Region, arr.Region.ElemIndex(a))
	wi := wordIndexOf(arr.Region, e, c.M.LineBytes())
	fr, w := c.lookupBits(p, a, wi)
	if fr == nil || fr.State() != cache.Dirty {
		return false // miss, or a clean-line upgrade at the home
	}
	return w.First() != abits.FirstOther && !w.ROnly() // else the FAIL arm
}

// pvClassifyRead mirrors pvRead's hit path (Figure 8-(a)) on the private
// copy: once the word is marked Read1st or Write for this iteration the
// read is pure; the first touch of an iteration signals the directory.
func (c *Controller) pvClassifyRead(arr *Array, p int, a mem.Addr) bool {
	e := arr.Region.ElemIndex(a)
	priv := arr.Priv[p]
	pa := priv.ElemAddr(e)
	wi := wordIndexOf(priv, e, c.M.LineBytes())
	fr, w := c.lookupBits(p, pa, wi)
	return fr != nil && (w.Read1st() || w.Write())
}

// pvClassifyWrite mirrors pvWrite's hit path (Figure 9-(f)): a dirty hit
// is pure unless this would be the processor's very first write to the
// element (pMaxW still zero with no completed-epoch write), which sends a
// first-write signal to the shared directory.
func (c *Controller) pvClassifyWrite(arr *Array, p int, a mem.Addr) bool {
	e := arr.Region.ElemIndex(a)
	priv := arr.Priv[p]
	pa := priv.ElemAddr(e)
	wi := wordIndexOf(priv, e, c.M.LineBytes())
	fr, w := c.lookupBits(p, pa, wi)
	if fr == nil || fr.State() != cache.Dirty {
		return false // miss, or a clean private-line upgrade
	}
	if !w.Write() && arr.pMaxW.Get(arr.pIdx(p, e)) == 0 && !arr.pvWroteEver(p, e) {
		return false // first write ever: first-write signal to the home
	}
	return true
}
