package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/verify"
)

// scheduler memoises list-scheduling runs per processor count within one
// heuristic invocation, so that the binary searches of LAMPS phases 1 and 2
// and the candidate evaluation never schedule the same configuration twice.
// It is safe for concurrent use: the parallel engine builds candidates from
// many goroutines. Duplicate concurrent builds of the same count are
// possible but harmless — exactly one wins the memo slot and is counted, so
// SchedulesBuilt stays deterministic.
//
// The scheduler lives inside an arena: the byCount memo and the shell free
// list survive across requests (reset by arena.close), so a warm request
// never allocates a Schedule — shells are recycled and ScheduleInto regrows
// their slices in place.
type scheduler struct {
	ctx       context.Context
	g         *dag.Graph
	prio      []int64
	obs       *obsHub
	selfCheck bool            // Config.SelfCheck: verify every freshly built schedule
	pf        *power.Platform // the run's machine

	mu      sync.Mutex
	byCount []*sched.Schedule // memo indexed by processor count; nil = not built
	shells  []*sched.Schedule // free list of fully-owned reusable Schedule scratch
	built   int
}

func (sc *scheduler) init(ctx context.Context, g *dag.Graph, prio []int64, obs *obsHub, selfCheck bool, pf *power.Platform) {
	sc.ctx = ctx
	sc.g = g
	sc.prio = prio
	sc.obs = obs
	sc.selfCheck = selfCheck
	sc.pf = pf
}

// getShell pops a recycled Schedule (or makes the arena's first one). The
// caller owns it until it either wins a memo slot or is returned with
// putShell.
func (sc *scheduler) getShell() *sched.Schedule {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if n := len(sc.shells); n > 0 {
		s := sc.shells[n-1]
		sc.shells[n-1] = nil
		sc.shells = sc.shells[:n-1]
		return s
	}
	return new(sched.Schedule)
}

func (sc *scheduler) putShell(s *sched.Schedule) {
	s.Graph = nil
	sc.mu.Lock()
	sc.shells = append(sc.shells, s)
	sc.mu.Unlock()
}

// recycleSchedules moves every memoised schedule onto the shell free list
// and drops its graph reference; called by arena.close once the winning
// schedule has been detached with CloneCompact.
func (sc *scheduler) recycleSchedules() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, s := range sc.byCount {
		if s != nil {
			s.Graph = nil
			sc.shells = append(sc.shells, s)
			sc.byCount[i] = nil
		}
	}
}

// kernelPool recycles scheduling scratch (heaps, in-degree and dispatch
// buffers) across runs and goroutines: every candidate build borrows one
// kernel, so warm builds write straight into recycled Schedule shells
// without allocating at all.
var kernelPool = sync.Pool{New: func() any { return new(sched.Scheduler) }}

// at returns the (memoised) list schedule on n processors. It checks the
// run's context first, which bounds the cancellation latency of every search
// loop to at most one ListSchedule call.
func (sc *scheduler) at(n int) (*sched.Schedule, error) {
	if err := sc.ctx.Err(); err != nil {
		return nil, err
	}
	sc.mu.Lock()
	if n < len(sc.byCount) && sc.byCount[n] != nil {
		s := sc.byCount[n]
		sc.mu.Unlock()
		return s, nil
	}
	sc.mu.Unlock()
	k := kernelPool.Get().(*sched.Scheduler)
	s := sc.getShell()
	err := k.ScheduleIntoPlatform(s, sc.g, sc.pf, n, sc.prio, nil)
	kernelPool.Put(k)
	if err != nil {
		sc.putShell(s)
		return nil, err
	}
	if sc.selfCheck {
		// Config.SelfCheck: every schedule the kernel emits is re-checked
		// from first principles before any search step may consume it.
		if verr := verify.PlatformSchedule(sc.g, sc.pf, s); verr != nil {
			sc.putShell(s)
			return nil, fmt.Errorf("core: self-check: schedule on %d processors: %w", n, verr)
		}
	}
	sc.mu.Lock()
	for len(sc.byCount) <= n {
		sc.byCount = append(sc.byCount, nil)
	}
	if prev := sc.byCount[n]; prev != nil {
		// A concurrent build won the slot; recycle ours uncounted.
		s.Graph = nil
		sc.shells = append(sc.shells, s)
		sc.mu.Unlock()
		return prev, nil
	}
	sc.byCount[n] = s
	sc.built++
	sc.mu.Unlock()
	sc.obs.scheduleBuilt(n, s.Makespan)
	return s, nil
}

// builtCount returns the number of distinct schedules built so far.
func (sc *scheduler) builtCount() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.built
}

// makespan returns the makespan on n processors, in cycles.
func (sc *scheduler) makespan(n int) (int64, error) {
	s, err := sc.at(n)
	if err != nil {
		return 0, err
	}
	return s.Makespan, nil
}

// nLowerBound is the paper's N_lwb = ceil(sum of weights / D): no fewer
// processors can possibly complete the work before the deadline, with the
// deadline expressed in cycles at maximum frequency.
func nLowerBound(g *dag.Graph, deadlineCycles float64) int {
	if deadlineCycles <= 0 {
		return g.NumTasks()
	}
	n := int(math.Ceil(float64(g.TotalWork()) / deadlineCycles))
	if n < 1 {
		n = 1
	}
	return n
}

// minProcsForDeadline performs the paper's phase-1 binary search: the
// minimal number of processors whose LS-EDF makespan meets the deadline
// (deadline in cycles at maximum frequency). The search interval is
// [N_lwb, hi]; monotonicity of the makespan in the processor count is
// assumed, as in the paper. A makespan meets the deadline with the energy
// layer's relative tolerance of 1e-12, so a deadline set to a makespan in
// seconds, which can round one ulp below it in cycles, still admits that
// count here exactly as it does when the energy is evaluated.
func (sc *scheduler) minProcsForDeadline(deadlineCycles float64, hi int) (int, error) {
	lo := nLowerBound(sc.g, deadlineCycles)
	if lo > hi {
		lo = hi
	}
	mk, err := sc.makespan(hi)
	if err != nil {
		return 0, err
	}
	if float64(mk) > deadlineCycles*(1+1e-12) {
		return 0, fmt.Errorf("%w: makespan %d cycles on %d processors, deadline %.0f cycles",
			ErrInfeasible, mk, hi, deadlineCycles)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		mk, err := sc.makespan(mid)
		if err != nil {
			return 0, err
		}
		if float64(mk) <= deadlineCycles*(1+1e-12) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// saturationPoint locates the end of phase 2's candidate range: the smallest
// n in [lo, hi] whose makespan has reached the critical path length — its
// absolute minimum — or hi if no count gets there. It binary-searches,
// which is what lets the parallel engine fix the whole candidate set up
// front instead of walking it one count at a time.
//
// The binary search assumes the LS-EDF makespan is monotone
// (non-increasing) in the processor count, the same assumption phase 1
// makes. Only under that assumption is the result the first count a linear
// scan — the paper's phase 2 — would stop at. List scheduling is not
// monotone in general (Graham's anomalies): adding a processor can lengthen
// the schedule, and on such graphs the binary search may return a
// different count and so a different candidate set. EXPERIMENTS.md records
// this as a known deviation from the paper.
func (sc *scheduler) saturationPoint(lo, hi int) (int, error) {
	cpl := sc.g.CriticalPathLength()
	mk, err := sc.makespan(hi)
	if err != nil {
		return 0, err
	}
	if mk > cpl {
		return hi, nil
	}
	for lo < hi {
		mid := (lo + hi) / 2
		mk, err := sc.makespan(mid)
		if err != nil {
			return 0, err
		}
		if mk <= cpl {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
