package core

// This file exposes read-only views of the speculation hardware's
// directory-side state, plus a fault-injection knob, for the protocol
// invariant checker (internal/check). The accessors return copies of
// scalar state only; nothing here can mutate protocol tables.

// NoIter is the MinW / PMaxW "no iteration" sentinel (§3.3: MinW starts
// at "infinity" so that MaxR1st <= MinW holds for untouched elements).
const NoIter = noIter

// InjectedBug selects a deliberate protocol bug for checker validation:
// the interleaving fuzzer must be able to catch a broken race-resolution
// rule, so the bugs are kept in-tree behind this knob.
type InjectedBug uint8

const (
	// InjectNone runs the correct protocol.
	InjectNone InjectedBug = iota
	// InjectFirstVsWriteFlip flips the First_update-vs-write rule of
	// Figure 7-(f): when a First_update arrives for an element already
	// marked NoShr (a write got there first), the buggy home marks the
	// element ROnly instead of raising FAIL — silently accepting a
	// read-after-write dependence.
	InjectFirstVsWriteFlip
)

// NPState returns the non-privatization directory state of element e:
// the First processor (-1 = NONE) and the NoShr and ROnly flags.
func (a *Array) NPState(e int) (first int, noShr, rOnly bool) {
	return a.npGet(e)
}

// SharedStamps returns the privatization shared-directory time stamps of
// element e (MaxR1st, MinW; MinW == NoIter means never written).
func (a *Array) SharedStamps(e int) (maxR1st, minW int32) {
	return a.maxR1st.Get(e), a.minW.Get(e)
}

// PrivStamps returns processor p's private-directory time stamps for
// element e (PMaxR1st, PMaxW; zero means no read-first / no write yet).
func (a *Array) PrivStamps(p, e int) (pMaxR1st, pMaxW int32) {
	return a.pMaxR1st.Get(a.pIdx(p, e)), a.pMaxW.Get(a.pIdx(p, e))
}

// WroteEver reports the sticky cross-epoch write summary for processor p
// and element e (false when epochs are not in use).
func (a *Array) WroteEver(p, e int) bool {
	return a.pvWroteEver(p, e)
}
