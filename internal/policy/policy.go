// Package policy is the adaptive speculation layer: a loop's History of
// how its past instances behaved under each parallelization strategy,
// and pluggable directors that map that history to the next instance's
// decision.
//
// The paper pays full speculation cost on every loop instance — the
// scheme (serial, software LRPD, hardware non-privatization, hardware
// privatization) is chosen statically and never revisited, so a loop
// whose behaviour changes across instances keeps paying backup + failed
// speculation + restore, and a loop that would privatize cleanly keeps
// failing the non-privatization test. The directors here close that
// loop at run time, in the style of Moshovos et al.'s memory dependence
// prediction tables (saturating confidence counters) and the STU
// adaptive flow director's Level 0/1/2 speculation ladder.
//
// Determinism is load-bearing: a Decision is a pure function of the
// recorded history (integers only, no clocks, no randomness), so an
// adaptive run is a deterministic function of (workload, config) just
// like a static run — the harness memoizer and the server result cache
// key adaptive configs exactly like static ones.
package policy

import "fmt"

// Strategy is one parallelization scheme the director can choose for a
// loop instance. The values mirror the paper's schemes: run serially,
// run the software LRPD test (§2), or run the hardware protocol with
// the arrays under test handled by the non-privatization (§3.2) or
// privatization (§3.3) algorithm.
type Strategy uint8

const (
	Serial Strategy = iota
	SWLRPD
	HWNonPriv
	HWPriv

	// NumStrategies sizes per-strategy arrays.
	NumStrategies = 4
)

// Strategies lists every strategy in canonical (cheapest-risk-first)
// order. Deterministic tie-breaks iterate in this order.
var Strategies = []Strategy{Serial, SWLRPD, HWNonPriv, HWPriv}

func (s Strategy) String() string {
	switch s {
	case Serial:
		return "serial"
	case SWLRPD:
		return "sw-lrpd"
	case HWNonPriv:
		return "hw-nonpriv"
	case HWPriv:
		return "hw-priv"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// StrategyByName resolves a strategy flag or request-body value.
func StrategyByName(name string) (Strategy, error) {
	for _, s := range Strategies {
		if s.String() == name {
			return s, nil
		}
	}
	return Serial, fmt.Errorf("policy: unknown strategy %q (serial|sw-lrpd|hw-nonpriv|hw-priv)", name)
}

// Decision is what a director returns for the next loop instance.
type Decision struct {
	Strategy Strategy
	// Chunk, when positive, overrides the chunk size of the chosen
	// mode's dynamic or block-cyclic schedule for this instance (static
	// schedules and zero keep the workload's own chunking).
	Chunk int
}

// Outcome is one completed loop instance's observation, recorded into
// its loop's History.
type Outcome struct {
	Strategy Strategy
	// Failed reports that speculation failed (or raised an exception)
	// and the instance re-executed serially; Cycles includes that
	// penalty.
	Failed bool
	// Cycles is the instance's total simulated time under the chosen
	// strategy, failure handling included.
	Cycles int64
}

// Kind switches the policy layer on or off in run.Config. The zero
// value is Off: every instance runs the statically configured mode,
// exactly as before the policy layer existed.
type Kind uint8

const (
	Off Kind = iota
	Adaptive
)

func (k Kind) String() string {
	switch k {
	case Off:
		return "off"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindByName resolves a policy flag or request-body value; the empty
// string means the default (Off).
func KindByName(name string) (Kind, error) {
	switch name {
	case "", "off":
		return Off, nil
	case "adaptive":
		return Adaptive, nil
	}
	return Off, fmt.Errorf("policy: unknown policy %q (off|adaptive)", name)
}

// MarshalText renders the canonical name (for configs embedded in JSON).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a canonical name.
func (k *Kind) UnmarshalText(b []byte) error {
	v, err := KindByName(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// DirectorKind selects which decision procedure an adaptive run uses.
// The zero value is Static, the paper baseline.
type DirectorKind uint8

const (
	Static DirectorKind = iota
	Threshold
	Cost
)

// DirectorKinds lists the directors in presentation order.
var DirectorKinds = []DirectorKind{Static, Threshold, Cost}

func (k DirectorKind) String() string {
	switch k {
	case Static:
		return "static"
	case Threshold:
		return "threshold"
	case Cost:
		return "cost"
	}
	return fmt.Sprintf("DirectorKind(%d)", uint8(k))
}

// DirectorByName resolves a director flag or request-body value; the
// empty string means the default (Static).
func DirectorByName(name string) (DirectorKind, error) {
	switch name {
	case "", "static":
		return Static, nil
	case "threshold":
		return Threshold, nil
	case "cost":
		return Cost, nil
	}
	return Static, fmt.Errorf("policy: unknown director %q (static|threshold|cost)", name)
}

// MarshalText renders the canonical name.
func (k DirectorKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a canonical name.
func (k *DirectorKind) UnmarshalText(b []byte) error {
	v, err := DirectorByName(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Director maps a loop's history to the next instance's decision.
// Decide must be a pure function of the history — it must not modify
// it, and uses no randomness, no wall clocks and no internal mutable
// state — so that adaptive runs stay deterministic and cacheable.
type Director interface {
	Name() string
	Decide(h *History) Decision
}

// New builds the director a DirectorKind names. The static baseline
// pins every instance to the given decision (derived from the
// configured mode by the caller); the learned directors ignore it.
func New(k DirectorKind, static Decision) (Director, error) {
	switch k {
	case Static:
		return NewStatic(static), nil
	case Threshold:
		return NewThreshold(), nil
	case Cost:
		return NewCost(), nil
	}
	return nil, fmt.Errorf("policy: unknown director kind %d", k)
}
