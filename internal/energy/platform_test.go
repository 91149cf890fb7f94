package energy

import (
	"errors"
	"math/rand"
	"testing"

	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
)

// heteroPlatform returns the LP×3 + HP×2 test machine: two classes with
// different fmax, so slot scaling and per-class gap classification are both
// exercised.
func heteroPlatform(t testing.TB) *power.Platform {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	lp.POn = 0.04
	lp.PSleep = 25e-6
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// heteroSchedule builds a random platform schedule (timeline cycles, scaled
// slots) for the given platform.
func heteroSchedule(t testing.TB, pf *power.Platform, seed int64, size int) *sched.Schedule {
	t.Helper()
	g, err := taskgen.Member(size, int(seed%4), seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedulePlatform(g, pf, pf.NumProcs(), sched.EDFPriorities(g, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMinFeasiblePointHomogeneousParity: on a single-class platform the
// selected operating point must be the legacy minimum feasible level, and
// an infeasible deadline must fail with the same message.
func TestMinFeasiblePointHomogeneousParity(t *testing.T) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		s := randomSchedule(rng, 1+rng.Intn(25), 1+rng.Intn(5))
		pf, err := power.Homogeneous(s.NumProcs, m)
		if err != nil {
			t.Fatal(err)
		}
		deadline := float64(s.Makespan) / m.FMax() * (0.5 + rng.Float64()*4)
		lvl, errL := MinFeasibleLevel(s, m, deadline)
		pt, errP := MinFeasiblePoint(s, pf, deadline)
		if (errL == nil) != (errP == nil) {
			t.Fatalf("iter %d: err %v vs legacy %v", iter, errP, errL)
		}
		if errL != nil {
			if errP.Error() != errL.Error() {
				t.Fatalf("iter %d: error %q, legacy %q", iter, errP, errL)
			}
			continue
		}
		if pt.Index != lvl.Index || pt.Levels[0] != lvl {
			t.Fatalf("iter %d: point %d (%+v) != legacy level %d", iter, pt.Index, pt.Levels[0], lvl.Index)
		}
	}
}

// TestEvaluatePointHeterogeneous sanity-checks the heterogeneous accounting:
// active time is the per-class work at the realising levels, the deadline
// check fires below the makespan, points slower than the minimum feasible
// one are rejected, and repeated evaluation of a reused profile is
// deterministic.
func TestEvaluatePointHeterogeneous(t *testing.T) {
	pf := heteroPlatform(t)
	var p GapProfile
	for iter := 0; iter < 15; iter++ {
		s := heteroSchedule(t, pf, int64(iter)*31+1, 5+iter*4)
		p.ResetPlatform(s, pf)
		deadline := float64(s.Makespan) / pf.RefFMax() * 2
		min, err := MinFeasiblePoint(s, pf, deadline)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		pts, err := FeasiblePoints(s, pf, deadline)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(pts) != min.Index+1 || pts[len(pts)-1].Index != min.Index {
			t.Fatalf("iter %d: FeasiblePoints = %d points, min index %d", iter, len(pts), min.Index)
		}
		for _, pt := range pts {
			for _, opts := range []Options{{}, {PS: true}} {
				bd, err := p.EvaluatePoint(pf, pt, deadline, opts)
				if err != nil {
					t.Fatalf("iter %d pt %d: %v", iter, pt.Index, err)
				}
				if bd.Total() <= 0 || bd.ActiveTime <= 0 {
					t.Fatalf("iter %d pt %d: degenerate breakdown %+v", iter, pt.Index, bd)
				}
				again, err := p.EvaluatePoint(pf, pt, deadline, opts)
				if err != nil || again != bd {
					t.Fatalf("iter %d pt %d: non-deterministic evaluation", iter, pt.Index)
				}
			}
		}
		// A point past the minimum feasible one must miss the deadline.
		if min.Index+1 < len(pf.Points()) {
			if _, err := p.EvaluatePoint(pf, pf.Points()[min.Index+1], deadline, Options{}); !errors.Is(err, ErrDeadline) {
				t.Fatalf("iter %d: infeasible point accepted (err=%v)", iter, err)
			}
		}
		if _, err := p.EvaluatePoint(pf, pf.MaxPoint(), float64(s.Makespan)/pf.RefFMax()*0.5, Options{}); !errors.Is(err, ErrDeadline) {
			t.Fatalf("iter %d: sub-makespan deadline accepted", iter)
		}
	}
}

// TestGapProfileEvaluateZeroAllocPlatform extends the energy allocation gate
// to the heterogeneous path: EvaluatePoint on a built platform profile must
// not allocate, and ResetPlatform onto a same-shape schedule must not
// allocate once the per-class buffers are warm. The name contains
// TestGapProfileEvaluateZeroAlloc so the Makefile alloc-gate pattern covers
// it.
func TestGapProfileEvaluateZeroAllocPlatform(t *testing.T) {
	pf := heteroPlatform(t)
	s := heteroSchedule(t, pf, 3, 60)
	var p GapProfile
	p.ResetPlatform(s, pf)
	pt := pf.MaxPoint()
	deadline := float64(s.Makespan) / pf.RefFMax() * 2
	for _, opts := range []Options{{}, {PS: true}} {
		opts := opts
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.EvaluatePoint(pf, pt, deadline, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("GapProfile.EvaluatePoint allocates %v allocs/op (PS=%v)", allocs, opts.PS)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { p.ResetPlatform(s, pf) })
	if allocs != 0 {
		t.Fatalf("warm GapProfile.ResetPlatform allocates %v allocs/op", allocs)
	}
}
