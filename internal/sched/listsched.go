package sched

import (
	"math"

	"lamps/internal/dag"
	"lamps/internal/power"
)

// NoDeadline marks a task without an explicit deadline in per-task deadline
// slices.
const NoDeadline = int64(math.MaxInt64)

// EDFPriorities returns the per-task priorities used by list scheduling with
// earliest deadline first for a single global deadline D (in cycles): the
// effective deadline of task v is the latest time it may finish without
// making the deadline unreachable along any downstream path,
//
//	d(v) = D − (blevel(v) − w(v)).
//
// Lower values mean higher urgency. Because D shifts all priorities equally,
// the resulting order — and hence the schedule — is independent of D; EDF
// with a global deadline coincides with highest-bottom-level-first list
// scheduling.
//
// The subtraction saturates at the int64 bounds instead of wrapping, so the
// EDF order survives any deadline: priorities are exact for deadlines in
// [MinInt64 + CPL, MaxInt64] (which covers NoDeadline); below that range
// priorities clamp to MinInt64 and ties collapse onto task-index order
// rather than inverting.
func EDFPriorities(g *dag.Graph, deadline int64) []int64 {
	return EDFPrioritiesInto(make([]int64, g.NumTasks()), g, deadline)
}

// EDFPrioritiesInto is EDFPriorities writing into caller-owned scratch: dst
// is grown if needed and the filled prefix of length g.NumTasks() returned.
// Hot paths (the engine's per-request arena) use it to keep priority
// computation allocation-free once the scratch is warm.
func EDFPrioritiesInto(dst []int64, g *dag.Graph, deadline int64) []int64 {
	n := g.NumTasks()
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	for v := range dst {
		dst[v] = subSat(deadline, g.BottomLevel(v)-g.Weight(v))
	}
	return dst
}

// subSat returns a − b, saturating at math.MinInt64/math.MaxInt64 instead of
// wrapping. Wrapping would be fatal here: a deadline near either int64 bound
// (NoDeadline being the everyday case) would flip the sign of the priority
// and invert the EDF dispatch order.
func subSat(a, b int64) int64 {
	d := a - b
	if (a >= 0) != (b >= 0) && (d >= 0) != (a >= 0) {
		if a >= 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return d
}

// DeadlinePriorities returns EDF priorities for per-task absolute deadlines
// (use NoDeadline for tasks without one, e.g. non-output tasks of an
// unrolled KPN). The effective deadline is propagated backwards:
//
//	d(v) = min(dl(v), min over successors s of d(s) − w(s)).
//
// It returns ErrBadDeadlines when the slice length does not match the graph.
func DeadlinePriorities(g *dag.Graph, dl []int64) ([]int64, error) {
	n := g.NumTasks()
	if len(dl) != n {
		return nil, ErrBadDeadlines
	}
	eff := make([]int64, n)
	copy(eff, dl)
	topo := g.TopoOrder()
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for _, s := range g.Succs(int(v)) {
			if eff[s] == NoDeadline {
				continue
			}
			if d := subSat(eff[s], g.Weight(int(s))); d < eff[v] {
				eff[v] = d
			}
		}
	}
	return eff, nil
}

// FIFOPriorities returns priorities equal to the task index. Used as a
// deliberately naive baseline in ablation experiments.
func FIFOPriorities(g *dag.Graph) []int64 {
	prio := make([]int64, g.NumTasks())
	for v := range prio {
		prio[v] = int64(v)
	}
	return prio
}

// ListEDF schedules the graph on nprocs identical processors using list
// scheduling with earliest deadline first (LS-EDF), the scheduling algorithm
// employed by S&S and LAMPS. Whenever a processor is idle and tasks are
// ready, the ready task with the earliest effective deadline is dispatched.
func ListEDF(g *dag.Graph, nprocs int) (*Schedule, error) {
	return ListSchedule(g, nprocs, EDFPriorities(g, 0))
}

// ListEDFWithDeadlines is ListEDF with explicit per-task deadlines (see
// DeadlinePriorities).
func ListEDFWithDeadlines(g *dag.Graph, nprocs int, dl []int64) (*Schedule, error) {
	prio, err := DeadlinePriorities(g, dl)
	if err != nil {
		return nil, err
	}
	return ListSchedule(g, nprocs, prio)
}

// ListSchedule runs event-driven, work-conserving list scheduling with
// arbitrary per-task priorities (lower value = dispatched earlier among
// ready tasks). Whenever at least one processor is idle and at least one
// task is ready, the lowest-priority-value ready task starts immediately on
// the lowest-numbered idle processor; otherwise time advances to the next
// task completion. It is the engine behind ListEDF and the alternative
// policies.
func ListSchedule(g *dag.Graph, nprocs int, prio []int64) (*Schedule, error) {
	return ListScheduleReleases(g, nprocs, prio, nil)
}

// ListScheduleReleases is ListSchedule with per-task release times (in
// cycles): no task starts before its release, even when its predecessors
// have finished and a processor is idle. Releases model environment inputs
// that arrive over time — the paper uses them for periodic tasks translated
// to frame DAGs (Section 3.1, after Liberato et al.) and for KPN inputs not
// available at time zero. A nil slice means every task is released at 0.
//
// It is a convenience wrapper over the allocation-free kernel: it runs a
// fresh Scheduler scratch and returns a fresh Schedule. Callers on a hot
// path should keep a Scheduler and call ScheduleInto to reuse both.
func ListScheduleReleases(g *dag.Graph, nprocs int, prio, release []int64) (*Schedule, error) {
	var k Scheduler
	s := new(Schedule)
	if err := k.ScheduleInto(s, g, nprocs, prio, release); err != nil {
		return nil, err
	}
	return s, nil
}

// ListSchedulePlatform is the convenience form of ScheduleIntoPlatform with
// fresh scratch and a fresh Schedule, mirroring ListScheduleReleases.
func ListSchedulePlatform(g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) (*Schedule, error) {
	var k Scheduler
	s := new(Schedule)
	if err := k.ScheduleIntoPlatform(s, g, pf, nprocs, prio, release); err != nil {
		return nil, err
	}
	return s, nil
}

// MakespanLowerBound returns max(CPL, ceil(W/nprocs)), a lower bound on the
// makespan of any schedule of g on nprocs processors. The paper's
// N_lwb = ceil(W/D) processor bound is this bound solved for N.
func MakespanLowerBound(g *dag.Graph, nprocs int) int64 {
	lb := g.CriticalPathLength()
	if w := (g.TotalWork() + int64(nprocs) - 1) / int64(nprocs); w > lb {
		lb = w
	}
	return lb
}
