package verify

import (
	"errors"
	"strings"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
)

// schedule builds an LS-EDF schedule for testing, failing the test on error.
func schedule(t *testing.T, g *dag.Graph, nprocs int) *sched.Schedule {
	t.Helper()
	s, err := sched.ListSchedule(g, nprocs, sched.EDFPriorities(g, 0))
	if err != nil {
		t.Fatalf("ListSchedule(%q, %d): %v", g.Name(), nprocs, err)
	}
	return s
}

// member returns one suite graph, failing the test on error.
func member(t *testing.T, size, i int, seed int64) *dag.Graph {
	t.Helper()
	g, err := taskgen.Member(size, i, seed)
	if err != nil {
		t.Fatalf("taskgen.Member(%d, %d, %d): %v", size, i, seed, err)
	}
	return g
}

// TestScheduleAcceptsListSchedules: every schedule the real scheduler
// produces must pass the independent checks, across graph families, sizes
// and processor counts, with and without release times.
func TestScheduleAcceptsListSchedules(t *testing.T) {
	for i := 0; i < 24; i++ {
		g := member(t, 6+3*i, i, int64(100+i))
		for _, nprocs := range []int{1, 2, 3, g.MaxWidth()} {
			s := schedule(t, g, nprocs)
			if err := Schedule(g, s); err != nil {
				t.Fatalf("graph %d, %d procs: valid schedule rejected: %v", i, nprocs, err)
			}
			if err := ScheduleWithin(g, s, ScheduleOptions{DeadlineCycles: s.Makespan}); err != nil {
				t.Fatalf("graph %d, %d procs: deadline == makespan rejected: %v", i, nprocs, err)
			}
			rel := make([]int64, g.NumTasks())
			rs, err := sched.ListScheduleReleases(g, nprocs, sched.EDFPriorities(g, 0), rel)
			if err != nil {
				t.Fatalf("ListScheduleReleases: %v", err)
			}
			if err := ScheduleWithin(g, rs, ScheduleOptions{Release: rel}); err != nil {
				t.Fatalf("graph %d, %d procs: release schedule rejected: %v", i, nprocs, err)
			}
		}
	}
}

// TestViolationMatchesSentinel: every violation must match ErrViolation
// under errors.Is and carry a repro dump naming the offender.
func TestViolationMatchesSentinel(t *testing.T) {
	g := member(t, 12, 0, 5)
	s := schedule(t, g, 2)
	c := cloneSchedule(s)
	c.Makespan++
	err := Schedule(g, c)
	if err == nil {
		t.Fatal("corrupted makespan accepted")
	}
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("violation does not match ErrViolation: %v", err)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is not a *Violation: %v", err)
	}
	if v.Check != CheckMakespan {
		t.Fatalf("check = %q, want %q", v.Check, CheckMakespan)
	}
	if !strings.Contains(err.Error(), "makespan") || !strings.Contains(err.Error(), "schedule:") {
		t.Fatalf("error lacks detail or repro dump:\n%v", err)
	}
}

// TestScheduleRejectsShapeErrors covers the structural guards: mismatched
// array lengths, a broken processor count and malformed dispatch lists
// (here: a zero-value schedule whose lists cannot even be indexed).
func TestScheduleRejectsShapeErrors(t *testing.T) {
	g := member(t, 10, 1, 6)
	s := schedule(t, g, 2)

	short := cloneSchedule(s)
	short.Start = short.Start[:len(short.Start)-1]
	if err := Schedule(g, short); err == nil {
		t.Fatal("short Start array accepted")
	}

	noProcs := cloneSchedule(s)
	noProcs.NumProcs = 0
	if err := Schedule(g, noProcs); err == nil {
		t.Fatal("NumProcs = 0 accepted")
	}

	if err := Schedule(g, &sched.Schedule{
		Graph:    g,
		NumProcs: 1,
		Proc:     make([]int32, g.NumTasks()),
		Start:    make([]int64, g.NumTasks()),
		Finish:   make([]int64, g.NumTasks()),
	}); err == nil {
		t.Fatal("zero-value placement with no dispatch lists accepted")
	}

	if err := Schedule(nil, nil); !errors.Is(err, ErrViolation) {
		t.Fatalf("nil inputs: %v", err)
	}
}

// TestEnergyParity: the naive linear walk must agree bit for bit with
// energy.Evaluate — every Breakdown field including shutdown counts — on
// random schedules, at every operating point, PS on and off, IgnoreIdle,
// and deadlines from exact fit to 8x slack. This is the verifier's licence
// to call any future mismatch a violation.
func TestEnergyParity(t *testing.T) {
	m := power.Default70nm()
	for i := 0; i < 12; i++ {
		g := member(t, 8+4*i, i, int64(3000+i))
		for _, nprocs := range []int{1, 3, g.MaxWidth()} {
			s := schedule(t, g, nprocs)
			for _, lvl := range m.Levels() {
				base := float64(s.Makespan) / lvl.Freq
				for _, slack := range []float64{1, 1.0001, 2, 8} {
					deadline := base * slack
					for _, opts := range []energy.Options{{}, {PS: true}, {IgnoreIdle: true}} {
						got, errGot := Energy(s, m, lvl, deadline, opts)
						want, errWant := energy.Evaluate(s, m, lvl, deadline, opts)
						if (errGot == nil) != (errWant == nil) {
							t.Fatalf("graph %d procs %d lvl %d slack %g: err %v vs kernel %v",
								i, nprocs, lvl.Index, slack, errGot, errWant)
						}
						if errGot != nil {
							continue
						}
						if got != want {
							t.Fatalf("graph %d procs %d lvl %d slack %g opts %+v:\n  verify %+v\n  kernel %+v",
								i, nprocs, lvl.Index, slack, opts, got, want)
						}
						if err := EnergyMatches(s, m, lvl, deadline, opts, want); err != nil {
							t.Fatalf("EnergyMatches rejects the kernel's own result: %v", err)
						}
					}
				}
			}
		}
	}
}

// TestEnergyRejectsMissedDeadline: a deadline below the makespan must be
// rejected by the walk exactly as by the kernel, matching energy.ErrDeadline.
func TestEnergyRejectsMissedDeadline(t *testing.T) {
	m := power.Default70nm()
	g := member(t, 14, 2, 9)
	s := schedule(t, g, 2)
	lvl := m.Levels()[0]
	_, err := Energy(s, m, lvl, float64(s.Makespan)/lvl.Freq*0.5, energy.Options{})
	if !errors.Is(err, energy.ErrDeadline) {
		t.Fatalf("missed deadline: %v", err)
	}
}

// TestResults exercises the cross-heuristic invariants on hand-crafted
// outcomes: a consistent set passes, and each class of breakage is caught.
func TestResults(t *testing.T) {
	good := []Outcome{
		{ApproachLimitMF, true, 1.0},
		{ApproachLimitSF, true, 1.2},
		{ApproachLAMPSPS, true, 1.3},
		{ApproachLAMPS, true, 1.4},
		{ApproachSSPS, true, 1.5},
		{ApproachSS, true, 2.0},
	}
	if err := Results(good); err != nil {
		t.Fatalf("consistent outcomes rejected: %v", err)
	}
	// Ulp-level ties must pass: the comparisons carry RelTol.
	tied := []Outcome{
		{ApproachSS, true, 1.0 + 1e-13},
		{ApproachSSPS, true, 1.0},
		{ApproachLAMPS, true, 1.0 + 1e-13},
		{ApproachLAMPSPS, true, 1.0},
	}
	if err := Results(tied); err != nil {
		t.Fatalf("ulp-level ties rejected: %v", err)
	}
	// Missing approaches skip their checks.
	if err := Results([]Outcome{{ApproachSS, true, 1}}); err != nil {
		t.Fatalf("lone outcome rejected: %v", err)
	}

	bad := []struct {
		name string
		outs []Outcome
	}{
		{"limit above heuristic", []Outcome{{ApproachLimitSF, true, 3}, {ApproachLAMPSPS, true, 1}}},
		{"MF above SF", []Outcome{{ApproachLimitMF, true, 2}, {ApproachLimitSF, true, 1}}},
		{"+PS worse than base", []Outcome{{ApproachSS, true, 1}, {ApproachSSPS, true, 1.5}}},
		{"LAMPS worse than S&S", []Outcome{{ApproachSS, true, 1}, {ApproachLAMPS, true, 1.5}}},
		{"LAMPS feasible, S&S not", []Outcome{{ApproachLAMPS, true, 1}, {ApproachSS, false, 0}}},
		{"S&S feasible, LAMPS not", []Outcome{{ApproachSS, true, 1}, {ApproachLAMPS, false, 0}}},
		{"S&S+PS feasible, LAMPS+PS not", []Outcome{{ApproachSSPS, true, 1}, {ApproachLAMPSPS, false, 0}}},
		{"base feasible, +PS not", []Outcome{{ApproachSS, true, 1}, {ApproachSSPS, false, 0}}},
	}
	for _, tc := range bad {
		err := Results(tc.outs)
		if !errors.Is(err, ErrViolation) {
			t.Fatalf("%s: not flagged (err = %v)", tc.name, err)
		}
	}
}

// parallelGraph is a fork-join graph with enough width that every mutation
// class of the self-test is applicable on two processors.
func parallelGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("selftest-forkjoin")
	src := b.AddTask(40)
	mids := make([]int, 5)
	for i := range mids {
		mids[i] = b.AddTask(int64(60 + 10*i))
		b.AddEdge(src, mids[i])
	}
	sink := b.AddTask(50)
	for _, m := range mids {
		b.AddEdge(m, sink)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSelfTestDetectsEveryClass: on a schedule where every corruption class
// is applicable, every class must be detected, and each detection must be a
// Violation.
func TestSelfTestDetectsEveryClass(t *testing.T) {
	g := parallelGraph(t)
	s := schedule(t, g, 2)
	m := power.Default70nm()
	lvl := m.CriticalLevel()
	deadline := float64(s.Makespan) / lvl.Freq * 2
	for _, opts := range []energy.Options{{}, {PS: true}} {
		results, err := SelfTest(g, s, m, lvl, deadline, opts)
		if err != nil {
			t.Fatalf("PS=%v: %v", opts.PS, err)
		}
		if len(results) < 8 {
			t.Fatalf("only %d mutation classes", len(results))
		}
		for _, r := range results {
			if r.Skipped {
				t.Errorf("PS=%v: class %q not applicable on a fork-join two-processor schedule", opts.PS, r.Class)
				continue
			}
			if !r.Detected {
				t.Errorf("PS=%v: corruption %q went undetected", opts.PS, r.Class)
				continue
			}
			if !errors.Is(r.Err, ErrViolation) {
				t.Errorf("PS=%v: class %q detected with a non-Violation error: %v", opts.PS, r.Class, r.Err)
			}
		}
	}
}

// TestSelfTestRejectsBadBaseline: handing the self-test an already corrupt
// schedule must fail fast instead of reporting mutation results.
func TestSelfTestRejectsBadBaseline(t *testing.T) {
	g := parallelGraph(t)
	s := schedule(t, g, 2)
	c := cloneSchedule(s)
	c.Start[0]++
	m := power.Default70nm()
	lvl := m.CriticalLevel()
	if _, err := SelfTest(g, c, m, lvl, float64(s.Makespan)/lvl.Freq*2, energy.Options{}); !errors.Is(err, ErrViolation) {
		t.Fatalf("corrupt baseline: %v", err)
	}
}
