package verify

import "fmt"

// Approach names, spelled exactly as the paper (and internal/core) spells
// them. They are declared here rather than imported because core imports
// this package for Config.SelfCheck; the duplication is deliberate and
// covered by a test in the campaign package.
const (
	ApproachSS      = "S&S"
	ApproachSSPS    = "S&S+PS"
	ApproachLAMPS   = "LAMPS"
	ApproachLAMPSPS = "LAMPS+PS"
	ApproachLimitSF = "LIMIT-SF"
	ApproachLimitMF = "LIMIT-MF"
)

// RelTol is the relative tolerance for cross-heuristic energy comparisons.
// The invariants below are exact in real arithmetic, but the compared
// totals are float sums accumulated along different code paths, so they may
// differ in the last few ulps.
const RelTol = 1e-9

// Outcome is one heuristic's result on one problem instance, reduced to
// what the cross-heuristic invariants need. Energy is the total in joules
// and is only meaningful when Feasible is true.
type Outcome struct {
	Approach string
	Feasible bool
	Energy   float64
}

// Results checks the cross-heuristic invariants over one problem instance's
// outcomes (any subset of approaches may be present; checks involving a
// missing approach are skipped):
//
//   - LIMIT-MF ≤ LIMIT-SF: allowing per-processor, time-varying frequencies
//     can only lower the bound.
//   - Each limit ≤ every heuristic's energy: the limits are lower bounds.
//   - S&S+PS ≤ S&S and LAMPS+PS ≤ LAMPS: the +PS sweep evaluates every
//     feasible level including the base heuristic's and takes the minimum,
//     and shutting a gap down is chosen per gap only when it is cheaper.
//   - LAMPS ≤ S&S and LAMPS+PS ≤ S&S+PS: the LAMPS candidate set always
//     contains the S&S processor count.
//   - LAMPS and S&S are feasible on exactly the same instances: LAMPS is
//     feasible only if the maximal processor count meets the deadline, and
//     its candidate set always contains that count, which is S&S's. A
//     heuristic and its +PS variant are likewise feasible on exactly the
//     same instances.
func Results(outs []Outcome) error {
	by := make(map[string]*Outcome, len(outs))
	for i := range outs {
		o := &outs[i]
		if prev, dup := by[o.Approach]; dup && *prev != *o {
			return &Violation{Check: CheckResult,
				Detail: fmt.Sprintf("approach %q reported twice with different outcomes", o.Approach)}
		}
		by[o.Approach] = o
	}
	le := func(lo, hi string) error {
		a, b := by[lo], by[hi]
		if a == nil || b == nil || !a.Feasible || !b.Feasible {
			return nil
		}
		if a.Energy > b.Energy*(1+RelTol) {
			return &Violation{Check: CheckResult,
				Detail: fmt.Sprintf("%s consumed %.9g J, more than %s's %.9g J", lo, a.Energy, hi, b.Energy)}
		}
		return nil
	}
	implies := func(ifFeasible, thenFeasible string) error {
		a, b := by[ifFeasible], by[thenFeasible]
		if a == nil || b == nil || !a.Feasible || b.Feasible {
			return nil
		}
		return &Violation{Check: CheckResult,
			Detail: fmt.Sprintf("%s is feasible but %s is not", ifFeasible, thenFeasible)}
	}

	checks := []error{
		le(ApproachLimitMF, ApproachLimitSF),
		le(ApproachLimitSF, ApproachSS),
		le(ApproachLimitSF, ApproachSSPS),
		le(ApproachLimitSF, ApproachLAMPS),
		le(ApproachLimitSF, ApproachLAMPSPS),
		le(ApproachLimitMF, ApproachSS),
		le(ApproachLimitMF, ApproachSSPS),
		le(ApproachLimitMF, ApproachLAMPS),
		le(ApproachLimitMF, ApproachLAMPSPS),
		le(ApproachSSPS, ApproachSS),
		le(ApproachLAMPSPS, ApproachLAMPS),
		le(ApproachLAMPS, ApproachSS),
		le(ApproachLAMPSPS, ApproachSSPS),
		implies(ApproachLAMPS, ApproachSS),
		implies(ApproachLAMPSPS, ApproachSSPS),
		implies(ApproachSS, ApproachLAMPS),
		implies(ApproachSSPS, ApproachLAMPSPS),
		implies(ApproachSS, ApproachSSPS),
		implies(ApproachSSPS, ApproachSS),
		implies(ApproachLAMPS, ApproachLAMPSPS),
		implies(ApproachLAMPSPS, ApproachLAMPS),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}
