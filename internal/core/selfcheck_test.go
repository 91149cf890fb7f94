package core

import (
	"context"
	"errors"
	"testing"

	"lamps/internal/power"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// TestSelfCheckResultsIdentical: enabling Config.SelfCheck must change
// nothing observable on valid problems — every approach returns the same
// processor count, level, energy breakdown and stats, bit for bit.
func TestSelfCheckResultsIdentical(t *testing.T) {
	approaches := []string{
		ApproachSS, ApproachSSPS, ApproachLAMPS, ApproachLAMPSPS,
		ApproachLimitSF, ApproachLimitMF,
	}
	for i := 0; i < 6; i++ {
		g, err := taskgen.Member(10+6*i, i, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []float64{1.5, 4} {
			plain := Engine{Config: DeadlineFactor(g, nil, factor)}
			checked := Engine{Config: DeadlineFactor(g, nil, factor)}
			checked.Config.SelfCheck = true
			for _, ap := range approaches {
				a, errA := plain.Run(context.Background(), ap, g)
				b, errB := checked.Run(context.Background(), ap, g)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("graph %d %s factor %g: err %v vs self-checked %v", i, ap, factor, errA, errB)
				}
				if errA != nil {
					continue
				}
				if a.Energy != b.Energy || a.NumProcs != b.NumProcs ||
					a.Level != b.Level || a.Stats != b.Stats {
					t.Fatalf("graph %d %s factor %g: self-check changed the result:\n  plain   %+v\n  checked %+v",
						i, ap, factor, a, b)
				}
			}
		}
	}
}

// TestSelfCheckOffByDefault pins the acceptance contract: the zero Config
// does not verify.
func TestSelfCheckOffByDefault(t *testing.T) {
	if (Config{}).SelfCheck {
		t.Fatal("SelfCheck is on in the zero Config")
	}
}

// TestSelfCheckCatchesTamperedResult exercises the failure path white-box:
// the engine's schedules are always valid, so the only way to see a
// violation surface is to hand selfCheckResult a result whose breakdown was
// corrupted after the fact. The error must match verify.ErrViolation so
// callers (lampsd's verify-failure counter) can classify it.
func TestSelfCheckCatchesTamperedResult(t *testing.T) {
	g, err := taskgen.Member(16, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := Engine{Config: DeadlineFactor(g, nil, 2)}
	e.Config.SelfCheck = true
	res, err := e.Run(context.Background(), ApproachLAMPSPS, g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.newRun(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// On the single-class machine the grid is the model ladder, so the
	// winning point sits at the winning level's index.
	pt := r.pf.Points()[res.Level.Index]
	if err := r.selfCheckResult(res, pt, true); err != nil {
		t.Fatalf("pristine result rejected: %v", err)
	}
	tampered := *res
	m := power.Default70nm()
	tampered.Energy.IdleTime += 1 / res.Level.Freq
	tampered.Energy.Idle = tampered.Energy.IdleTime * m.IdlePower(res.Level)
	verr := r.selfCheckResult(&tampered, pt, true)
	if !errors.Is(verr, verify.ErrViolation) {
		t.Fatalf("tampered breakdown not flagged as a violation: %v", verr)
	}
}
