package check

import (
	"fmt"

	"specrt/internal/abits"
	"specrt/internal/cache"
	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/machine"
	"specrt/internal/mem"
)

// Violation is one invariant breach. The first violation is sticky until
// the checker is rearmed; later transactions are hashed but not checked,
// so a single root cause does not cascade into noise.
type Violation struct {
	Invariant string // short invariant name, e.g. "np-first-set-once"
	Detail    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %s violated: %s", v.Invariant, v.Detail)
}

// Checker audits protocol invariants after every directory transaction.
// Attach hooks it into the machine's OnTransaction callback; the checks
// are line-targeted (only state reachable from the transaction's line is
// inspected), so the checker is cheap enough to stay enabled during full
// harness runs. CheckQuiesced adds the global checks that only hold once
// the event queue has drained.
//
// Protocol-state checks apply while the controller is armed and no
// failure has been recorded — a detected dependence legitimately leaves
// partially updated tables behind. Cache/directory coherence checks apply
// to every transaction regardless of protocol.
type Checker struct {
	m *machine.Machine
	c *core.Controller

	violation *Violation
	txs       uint64
	hash      uint64 // FNV-64a over the transaction sequence
	epochs    bool   // an EpochSync renumbered iterations (Resync)

	mirrors []*mirror
}

// mirror snapshots one array's directory-side protocol state so that
// monotonicity is checked against the previous observation.
type mirror struct {
	arr *core.Array
	// Non-privatization (Figure 5-(a)).
	first        []int
	noShr, rOnly []bool
	// Privatization (Figure 5-(c) and the private directories).
	maxR1st, minW   []int32
	pMaxR1st, pMaxW [][]int32
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Attach builds a checker for m's controller c and installs it as the
// machine's transaction hook. Call Rearm after every Controller.Arm (the
// protocol tables were reset) and Resync after every EpochSync.
func Attach(m *machine.Machine, c *core.Controller) *Checker {
	k := &Checker{m: m, c: c}
	m.OnTransaction = k.onTransaction
	return k
}

// Rearm resnapshots all protocol state and clears any recorded violation,
// hash and transaction count. Call it right after Controller.Arm.
func (k *Checker) Rearm() {
	k.violation = nil
	k.txs = 0
	k.hash = fnvOffset
	k.epochs = false
	k.mirrors = k.mirrors[:0]
	procs := k.m.Cfg.Procs
	for _, arr := range k.c.Arrays() {
		mi := &mirror{arr: arr}
		n := arr.Region.Elems
		if arr.Proto == core.NonPriv {
			mi.first = make([]int, n)
			mi.noShr = make([]bool, n)
			mi.rOnly = make([]bool, n)
			for e := 0; e < n; e++ {
				mi.first[e], mi.noShr[e], mi.rOnly[e] = arr.NPState(e)
			}
		} else if arr.Proto == core.Priv {
			mi.maxR1st = make([]int32, n)
			mi.minW = make([]int32, n)
			mi.pMaxR1st = make([][]int32, procs)
			mi.pMaxW = make([][]int32, procs)
			for e := 0; e < n; e++ {
				mi.maxR1st[e], mi.minW[e] = arr.SharedStamps(e)
			}
			for p := 0; p < procs; p++ {
				mi.pMaxR1st[p] = make([]int32, n)
				mi.pMaxW[p] = make([]int32, n)
				for e := 0; e < n; e++ {
					mi.pMaxR1st[p][e], mi.pMaxW[p][e] = arr.PrivStamps(p, e)
				}
			}
		}
		k.mirrors = append(k.mirrors, mi)
	}
}

// Resync resnapshots privatization state after an EpochSync renumbered
// the effective iterations (MaxR1st reset, MinW saturated, PMax* reset);
// the quiesce-time MaxR1st consistency check is skipped from here on.
func (k *Checker) Resync() {
	k.epochs = true
	for _, mi := range k.mirrors {
		if mi.arr.Proto != core.Priv {
			continue
		}
		for e := range mi.maxR1st {
			mi.maxR1st[e], mi.minW[e] = mi.arr.SharedStamps(e)
		}
		for p := range mi.pMaxR1st {
			for e := range mi.pMaxR1st[p] {
				mi.pMaxR1st[p][e], mi.pMaxW[p][e] = mi.arr.PrivStamps(p, e)
			}
		}
	}
}

// Err returns the first violation observed since Rearm, or nil.
func (k *Checker) Err() error {
	if k.violation == nil {
		return nil
	}
	return k.violation
}

// OrderHash fingerprints the delivery order explored since Rearm: an
// FNV-64a over the (kind, proc, line, time) sequence of every completed
// transaction. Two replays that deliver messages in different orders hash
// differently with overwhelming probability.
func (k *Checker) OrderHash() uint64 { return k.hash }

// Transactions returns the number of transactions observed since Rearm.
func (k *Checker) Transactions() uint64 { return k.txs }

func (k *Checker) fail(invariant, format string, args ...any) {
	if k.violation == nil {
		k.violation = &Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	}
}

func (k *Checker) onTransaction(kind machine.TxKind, proc int, line mem.Addr) {
	k.txs++
	h := k.hash
	for _, v := range [4]uint64{uint64(kind), uint64(proc), uint64(line), uint64(k.m.Eng.Now())} {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
	k.hash = h

	if k.violation != nil || k.c.Failed() != nil {
		// A recorded failure legitimately stops protocol bookkeeping;
		// a recorded violation would only cascade.
		return
	}
	k.checkCoherence(line)
	if !k.c.Armed() {
		return
	}
	for _, mi := range k.mirrors {
		k.checkMirror(mi, line)
	}
}

// checkCoherence verifies the base DASH invariants for one line: a Dirty
// directory entry has exactly its owner caching the line (dirty), a
// Shared entry only clean copies within its sharer set, an Uncached entry
// no copies at all. It also checks inclusion (an L1 copy has an L2 copy),
// which lets the machine skip L1 when L2 misses on an invalidation.
func (k *Checker) checkCoherence(line mem.Addr) {
	home := k.m.Dirs[k.m.HomeOf(line)]
	e := home.Peek(line)
	st := directory.Uncached
	if e != nil {
		st = e.State
	}
	for _, pr := range k.m.Procs {
		l1 := pr.L1.Lookup(line)
		l2 := pr.L2.Lookup(line)
		if l1 != nil && l2 == nil {
			k.fail("coh-inclusion", "line %#x in proc %d's L1 but not its L2", line, pr.ID)
		}
		if l1 == nil && l2 == nil {
			if st == directory.Dirty && int(e.Owner) == pr.ID {
				k.fail("coh-dirty-owner-holds", "line %#x dir DIRTY owner %d holds no copy", line, e.Owner)
			}
			continue
		}
		dirty := (l1 != nil && l1.State == cache.Dirty) || (l2 != nil && l2.State == cache.Dirty)
		switch st {
		case directory.Uncached:
			k.fail("coh-uncached-no-copies", "line %#x dir UNCACHED but cached at proc %d", line, pr.ID)
		case directory.Shared:
			if dirty {
				k.fail("coh-shared-clean", "line %#x dir SHARED but dirty at proc %d", line, pr.ID)
			} else if !home.HasSharer(e, pr.ID) {
				k.fail("coh-shared-recorded", "line %#x cached at proc %d missing from sharer set", line, pr.ID)
			}
		case directory.Dirty:
			if int(e.Owner) != pr.ID {
				k.fail("coh-dirty-exclusive", "line %#x dir DIRTY owner %d but cached at proc %d", line, e.Owner, pr.ID)
			} else if !dirty {
				k.fail("coh-dirty-owner-holds", "line %#x dir DIRTY but owner %d copy is clean", line, pr.ID)
			}
		}
	}
}

// checkMirror audits the protocol state reachable from one line against
// the mirror: monotonicity plus the state-machine exclusions that hold
// after every transaction.
func (k *Checker) checkMirror(mi *mirror, line mem.Addr) {
	arr := mi.arr
	lb := k.m.LineBytes()
	switch arr.Proto {
	case core.NonPriv:
		if !arr.Region.Contains(line) {
			return
		}
		lo, hi := elemsInLine(arr.Region, line, lb)
		for e := lo; e < hi; e++ {
			k.checkNPElem(mi, e)
		}
	case core.Priv:
		// Shared-region transactions (signals, read-in traffic) and
		// private-region transactions (the processor-side misses whose
		// home visits update the same element's stamps) both map to
		// shared element indices.
		if arr.Region.Contains(line) {
			lo, hi := elemsInLine(arr.Region, line, lb)
			for e := lo; e < hi; e++ {
				k.checkPrivElem(mi, e)
			}
			return
		}
		for _, priv := range arr.Priv {
			if priv.Contains(line) {
				lo, hi := elemsInLine(priv, line, lb)
				for e := lo; e < hi; e++ {
					k.checkPrivElem(mi, e)
				}
				return
			}
		}
	}
}

// checkNPElem verifies §3.2 element state: First is set once and never
// cleared, NoShr and ROnly only ever rise, and — the race-resolution
// rules' net effect — an element is never both written-exclusive (NoShr)
// and read-shared (ROnly) without a FAIL.
func (k *Checker) checkNPElem(mi *mirror, e int) {
	first, noShr, rOnly := mi.arr.NPState(e)
	name := mi.arr.Region.Name
	if mi.first[e] >= 0 && first != mi.first[e] {
		k.fail("np-first-set-once", "array %s elem %d First changed %d -> %d", name, e, mi.first[e], first)
	}
	if mi.noShr[e] && !noShr {
		k.fail("np-noshr-monotone", "array %s elem %d NoShr cleared", name, e)
	}
	if mi.rOnly[e] && !rOnly {
		k.fail("np-ronly-monotone", "array %s elem %d ROnly cleared", name, e)
	}
	if noShr && rOnly {
		k.fail("np-noshr-ronly-exclusive",
			"array %s elem %d is both NoShr and ROnly without a FAIL", name, e)
	}
	mi.first[e], mi.noShr[e], mi.rOnly[e] = first, noShr, rOnly
}

// checkPrivElem verifies §3.3 element state: MaxR1st and the PMax* stamps
// only rise, MinW only falls, and the shared lattice MaxR1st <= MinW
// holds after every transaction without a FAIL.
func (k *Checker) checkPrivElem(mi *mirror, e int) {
	maxR1st, minW := mi.arr.SharedStamps(e)
	name := mi.arr.Region.Name
	if maxR1st < mi.maxR1st[e] {
		k.fail("priv-maxr1st-monotone", "array %s elem %d MaxR1st fell %d -> %d", name, e, mi.maxR1st[e], maxR1st)
	}
	if minW > mi.minW[e] {
		k.fail("priv-minw-monotone", "array %s elem %d MinW rose %d -> %d", name, e, mi.minW[e], minW)
	}
	if maxR1st > minW {
		k.fail("priv-lattice", "array %s elem %d MaxR1st %d > MinW %d without a FAIL", name, e, maxR1st, minW)
	}
	mi.maxR1st[e], mi.minW[e] = maxR1st, minW
	for p := range mi.pMaxR1st {
		pr, pw := mi.arr.PrivStamps(p, e)
		if pr < mi.pMaxR1st[p][e] {
			k.fail("priv-pmaxr1st-monotone", "array %s elem %d proc %d PMaxR1st fell %d -> %d",
				name, e, p, mi.pMaxR1st[p][e], pr)
		}
		if pw < mi.pMaxW[p][e] {
			k.fail("priv-pmaxw-monotone", "array %s elem %d proc %d PMaxW fell %d -> %d",
				name, e, p, mi.pMaxW[p][e], pw)
		}
		mi.pMaxR1st[p][e], mi.pMaxW[p][e] = pr, pw
	}
}

// CheckQuiesced runs the global invariants that hold only once every
// in-flight message has been delivered (the event queue is empty) and
// before the caches are flushed: full-space coherence, L1 ⊆ L2 inclusion
// over every cached line, cache-tag /
// directory agreement for the non-privatization algorithm, and shared /
// private stamp consistency for the privatization algorithm. It returns
// the first violation (including any line-targeted one recorded earlier).
func (k *Checker) CheckQuiesced() error {
	if k.violation != nil {
		return k.violation
	}
	if k.c.Failed() == nil {
		for _, d := range k.m.Dirs {
			d.ForEach(func(line mem.Addr, _ *directory.Entry) { k.checkCoherence(line) })
		}
	}
	for _, pr := range k.m.Procs {
		pr.L1.ForEach(func(l cache.Line) {
			if pr.L2.Lookup(l.Tag) == nil {
				k.fail("coh-inclusion", "line %#x in proc %d's L1 but not its L2", l.Tag, pr.ID)
			}
		})
	}
	if k.c.Armed() && k.c.Failed() == nil {
		for _, mi := range k.mirrors {
			switch mi.arr.Proto {
			case core.NonPriv:
				k.checkNPQuiesced(mi)
			case core.Priv:
				k.checkPrivQuiesced(mi)
			}
		}
	}
	if k.violation == nil {
		return nil
	}
	return k.violation
}

// checkNPQuiesced re-audits every element and checks that the surviving
// cache-tag claims agree with the directory: with no message in flight, a
// clean line's tags can only restate (or lag) directory state — a tag
// claim the directory does not know about means an update was lost.
// Dirty lines are skipped: their claims merge at writeback.
func (k *Checker) checkNPQuiesced(mi *mirror) {
	arr := mi.arr
	name := arr.Region.Name
	for e := 0; e < arr.Region.Elems; e++ {
		k.checkNPElem(mi, e)
	}
	lb := k.m.LineBytes()
	for _, pr := range k.m.Procs {
		for line := k.m.LineAddr(arr.Region.Base); line < arr.Region.End(); line += mem.Addr(lb) {
			c := pr.L1
			fr := c.Lookup(line)
			if fr == nil {
				c = pr.L2 // the L1 copy, when present, is authoritative
				fr = c.Lookup(line)
			}
			if fr == nil || fr.State != cache.Clean {
				continue
			}
			bits := c.Bits(fr)
			if bits == nil {
				continue
			}
			lo, hi := elemsInLine(arr.Region, line, lb)
			for e := lo; e < hi; e++ {
				w := bits[wordIndexOf(arr.Region, e, lb)]
				first, noShr, rOnly := arr.NPState(e)
				switch w.First() {
				case abits.FirstOwn:
					switch {
					case w.NoShr() && (first != pr.ID || !noShr):
						k.fail("np-tag-dir-agree",
							"array %s elem %d: proc %d tag OWN+NoShr but dir First=%d NoShr=%t", name, e, pr.ID, first, noShr)
					case !w.NoShr() && first != pr.ID && !(first >= 0 && rOnly):
						k.fail("np-tag-dir-agree",
							"array %s elem %d: proc %d tag OWN but dir First=%d ROnly=%t", name, e, pr.ID, first, rOnly)
					}
				case abits.FirstOther:
					if first < 0 || first == pr.ID {
						k.fail("np-tag-dir-agree",
							"array %s elem %d: proc %d tag OTHER but dir First=%d", name, e, pr.ID, first)
					}
				}
				if w.ROnly() && !rOnly {
					k.fail("np-tag-dir-agree",
						"array %s elem %d: proc %d tag ROnly but dir ROnly unset", name, e, pr.ID)
				}
				if w.NoShr() && !noShr {
					k.fail("np-tag-dir-agree",
						"array %s elem %d: proc %d tag NoShr but dir NoShr unset", name, e, pr.ID)
				}
			}
		}
	}
}

// checkPrivQuiesced re-audits every element and checks that the shared
// directory absorbed exactly the private directories' claims: with no
// signal in flight, MaxR1st equals the highest PMaxR1st (skipped once an
// EpochSync renumbers iterations) and a finite MinW implies some
// processor wrote.
func (k *Checker) checkPrivQuiesced(mi *mirror) {
	arr := mi.arr
	name := arr.Region.Name
	procs := k.m.Cfg.Procs
	for e := 0; e < arr.Region.Elems; e++ {
		k.checkPrivElem(mi, e)
		maxR1st, minW := arr.SharedStamps(e)
		var top int32
		wrote := false
		for p := 0; p < procs; p++ {
			pr, pw := arr.PrivStamps(p, e)
			if pr > top {
				top = pr
			}
			wrote = wrote || pw > 0 || arr.WroteEver(p, e)
		}
		if !k.epochs && maxR1st != top {
			k.fail("priv-quiesce-maxr1st",
				"array %s elem %d MaxR1st %d != max PMaxR1st %d after quiesce", name, e, maxR1st, top)
		}
		if minW != core.NoIter && !wrote {
			k.fail("priv-quiesce-minw",
				"array %s elem %d MinW %d but no processor wrote", name, e, minW)
		}
	}
}

// elemsInLine returns the element index range [lo, hi) of r covered by
// the cache line at line (mirrors the controller's mapping).
func elemsInLine(r mem.Region, line mem.Addr, lineBytes int) (lo, hi int) {
	start := line
	if start < r.Base {
		start = r.Base
	}
	end := line + mem.Addr(lineBytes)
	if end > r.End() {
		end = r.End()
	}
	lo = int(start-r.Base) / r.ElemSize
	hi = int(end-r.Base+mem.Addr(r.ElemSize)-1) / r.ElemSize
	if hi > r.Elems {
		hi = r.Elems
	}
	return lo, hi
}

// wordIndexOf returns the access-bit word index of element e of r within
// its cache line.
func wordIndexOf(r mem.Region, e int, lineBytes int) int {
	off := int(r.ElemAddr(e) & mem.Addr(lineBytes-1))
	return off / abits.WordBytes
}
