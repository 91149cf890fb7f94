package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// ApproachPerTask names the per-task DVS extension in result listings.
const ApproachPerTask = "PerTask-DVS"

// PerTaskResult is the outcome of the per-task DVS extension: every task
// runs at its own discrete operating point.
type PerTaskResult struct {
	Graph    *dag.Graph
	NumProcs int
	Schedule *sched.Schedule

	// Levels[v] is the operating point of task v; StartSec/FinishSec are the
	// resulting per-task times in seconds.
	Levels    []power.Level
	StartSec  []float64
	FinishSec []float64

	Energy energy.Breakdown
	Stats  Stats
}

// TotalEnergy returns the total energy in joules.
func (r *PerTaskResult) TotalEnergy() float64 { return r.Energy.Total() }

// MakespanSec returns the end of the last task in seconds.
func (r *PerTaskResult) MakespanSec() float64 {
	var m float64
	for _, f := range r.FinishSec {
		if f > m {
			m = f
		}
	}
	return m
}

func (r *PerTaskResult) String() string {
	return fmt.Sprintf("%s: %.6g J on %d processor(s), makespan %.4gs",
		ApproachPerTask, r.TotalEnergy(), r.NumProcs, r.MakespanSec())
}

// SlackReclaimDVS is an *extension beyond the paper*: instead of one common
// frequency, every task is slowed down individually into its own slack, in
// the spirit of the greedy slack reclamation of Zhu, Melhem & Childers
// (IEEE TPDS 2003), which the paper cites as [1] and names in its future
// work. The paper's LIMIT-MF bound predicts this buys little except for
// fine-grain graphs with strict deadlines; this implementation makes that
// claim measurable.
//
// The algorithm searches processor counts like LAMPS; for each count it
// takes the LS-EDF schedule and assigns levels greedily in global start
// order: task v may finish as late as
//
//	lft(v) = D − (blevelAug(v) − w(v))/f_max,
//
// where blevelAug is the bottom level over the dependence graph *augmented
// with same-processor ordering edges* — so if v finishes by lft(v),
// everything after it can still complete by the deadline at maximum
// frequency. Each task then picks the slowest level (not below the critical
// level when PS is enabled) that fits its window. Idle gaps are charged at
// the critical level's idle power — the processor parks at an efficient
// voltage — and may be served by sleep exactly as in the +PS heuristics.
func SlackReclaimDVS(g *dag.Graph, cfg Config, ps bool) (*PerTaskResult, error) {
	return SlackReclaimDVSCtx(context.Background(), g, cfg, ps)
}

// SlackReclaimDVSCtx is SlackReclaimDVS with cooperative cancellation.
func SlackReclaimDVSCtx(ctx context.Context, g *dag.Graph, cfg Config, ps bool) (*PerTaskResult, error) {
	return (&Engine{Config: cfg}).PerTask(ctx, g, ps)
}

// PerTask runs the SlackReclaimDVS extension on the engine: the same
// phase-1/phase-2 candidate search as LAMPS, with each candidate schedule
// reclaimed per task (in parallel across candidates when a pool is set) and
// the cheapest kept, ties to the lower processor count. A candidate that
// misses the deadline is skipped, as in reduce.
func (e *Engine) PerTask(ctx context.Context, g *dag.Graph, ps bool) (*PerTaskResult, error) {
	if e.Config.faultsOn() {
		// Per-task stretching moves every slot boundary, which would strand
		// the statically planned backup slots; fault tolerance is limited to
		// the uniform-frequency heuristics for now.
		return nil, fmt.Errorf("%w: the per-task DVS extension does not support fault tolerance", ErrBadConfig)
	}
	r, err := e.newRun(ctx, g)
	if err != nil {
		return nil, err
	}
	defer r.a.runGuard()
	cands, err := r.candidates(g)
	if err != nil {
		return nil, err
	}

	r.obs.phase(PhaseReclaim)
	type slot struct {
		res   *PerTaskResult
		stats Stats
		err   error
	}
	slots := make([]slot, len(cands))
	r.each(len(cands), func(i int) {
		slots[i].res, slots[i].err = reclaimSchedule(r.ctx, cands[i].s, r.pf, r.cfg.Deadline, ps, &slots[i].stats)
	})

	var best *PerTaskResult
	var firstErr error
	stats := Stats{SchedulesBuilt: r.sc.builtCount()}
	for i := range slots {
		stats.Add(slots[i].stats)
		if err := slots[i].err; err != nil {
			if !errors.Is(err, energy.ErrDeadline) {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || slots[i].res.TotalEnergy() < best.TotalEnergy() {
			best = slots[i].res
		}
	}
	if best == nil {
		return nil, wrapInfeasible(firstErr)
	}
	best.Stats = stats
	// The winner's schedule is arena scratch about to be recycled; detach it.
	best.Schedule = best.Schedule.CloneCompact()
	return best, nil
}

// reclaimSchedule applies per-task DVS to one fixed schedule on platform pf:
// every task picks a level from the ladder of its processor's class, and
// idle gaps park at each class's own critical level. The latest-finish bound
// uses the slowest class's maximum frequency —
//
//	lft(v) = D − (blevelAug(v) − w(v))/min_c f_max(c)
//
// — which is conservative (every downstream task runs at its own class's
// maximum or faster), so a task finishing by lft(v) can never push the tail
// past the deadline whatever the downstream placement. On one class the
// bound divides by the model's f_max. reclaimSchedule checks ctx once up
// front: one reclamation pass is the same order of work as one ListSchedule
// call, the engine's cancellation granularity.
func reclaimSchedule(ctx context.Context, s *sched.Schedule, pf *power.Platform, deadline float64, ps bool, stats *Stats) (*PerTaskResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := s.Graph
	n := g.NumTasks()
	if float64(s.Makespan)/pf.RefFMax() > deadline*(1+1e-12) {
		// On a single class the timeline cycle is the model's own cycle.
		unit, speed := "timeline cycles", "full speed"
		if pf.IsHomogeneous() {
			unit, speed = "cycles", "f_max"
		}
		return nil, fmt.Errorf("%w: makespan %d %s exceeds deadline %.6gs at %s",
			energy.ErrDeadline, s.Makespan, unit, deadline, speed)
	}
	fmin := pf.ClassModel(0).FMax()
	for c := 1; c < pf.NumClasses(); c++ {
		if f := pf.ClassModel(c).FMax(); f < fmin {
			fmin = f
		}
	}

	// Augmented bottom levels: dependence edges plus same-processor ordering
	// edges, processed in decreasing original start time so every augmented
	// successor is final before its predecessors.
	procNext := make([]int32, n)
	for v := range procNext {
		procNext[v] = -1
	}
	for p := 0; p < s.NumProcs; p++ {
		tasks := s.TasksOn(p)
		for i := 0; i+1 < len(tasks); i++ {
			procNext[tasks[i]] = tasks[i+1]
		}
	}
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool { return s.Start[order[i]] > s.Start[order[j]] })
	blevelAug := make([]int64, n)
	for _, v := range order {
		var succMax int64
		for _, u := range g.Succs(int(v)) {
			if blevelAug[u] > succMax {
				succMax = blevelAug[u]
			}
		}
		if u := procNext[v]; u >= 0 && blevelAug[u] > succMax {
			succMax = blevelAug[u]
		}
		blevelAug[v] = g.Weight(int(v)) + succMax
	}

	// Greedy forward pass in increasing start order.
	res := &PerTaskResult{
		Graph:     g,
		NumProcs:  s.NumProcs,
		Schedule:  s,
		Levels:    make([]power.Level, n),
		StartSec:  make([]float64, n),
		FinishSec: make([]float64, n),
	}
	procFree := make([]float64, s.NumProcs)
	var bd energy.Breakdown

	for i := n - 1; i >= 0; i-- { // order is by decreasing start: walk back-to-front
		v := int(order[i])
		w := g.Weight(v)
		m := pf.ModelOf(int(s.Proc[v]))
		minIdx := len(m.Levels()) - 1
		if ps {
			// Below the critical frequency, sleeping the saved time is
			// cheaper than stretching into it.
			minIdx = m.CriticalLevel().Index
		}
		st := procFree[s.Proc[v]]
		for _, p := range g.Preds(v) {
			if res.FinishSec[p] > st {
				st = res.FinishSec[p]
			}
		}
		lft := deadline - float64(blevelAug[v]-w)/fmin
		// Slowest feasible level not below minIdx.
		chosen := m.MaxLevel()
		for idx := 1; idx <= minIdx; idx++ {
			l := m.Level(idx)
			if st+float64(w)/l.Freq <= lft*(1+1e-12) {
				chosen = l
			} else {
				break
			}
		}
		stats.LevelsEvaluated++
		fin := st + float64(w)/chosen.Freq
		if fin > deadline*(1+1e-9) {
			return nil, fmt.Errorf("%w: task %d cannot meet its window", energy.ErrDeadline, v)
		}
		res.Levels[v] = chosen
		res.StartSec[v] = st
		res.FinishSec[v] = fin
		procFree[s.Proc[v]] = fin
		bd.Active += float64(w) / chosen.Freq * m.LevelPower(chosen)
		bd.ActiveTime += float64(w) / chosen.Freq
	}

	// Every processor parks at its own class's critical level when idle.
	park := make([]power.Level, s.NumProcs)
	for p := range park {
		park[p] = pf.ModelOf(p).CriticalLevel()
	}
	chargeGaps(&bd, s, pf, park, res.StartSec, res.FinishSec, deadline, ps)
	res.Energy = bd
	return res, nil
}

// chargeGaps adds the idle energy of a re-timed schedule to bd: the
// leading, interior and trailing gaps up to the deadline of every used
// processor, in processor order then task order (unused processors are
// off). Processor p idles at level park[p] of its class, or — with ps, in a
// gap longer than that level's break-even time — sleeps through the gap.
func chargeGaps(bd *energy.Breakdown, s *sched.Schedule, pf *power.Platform, park []power.Level,
	startSec, finishSec []float64, deadline float64, ps bool) {
	for p := 0; p < s.NumProcs; p++ {
		tasks := s.TasksOn(p)
		if len(tasks) == 0 {
			continue
		}
		m := pf.ModelOf(p)
		pIdle := m.IdlePower(park[p])
		breakeven := m.BreakevenTime(park[p])
		charge := func(t float64) {
			if t <= 0 {
				return
			}
			if ps && t > breakeven {
				bd.Sleep += t * m.PSleep
				bd.SleepTime += t
				bd.Overhead += m.EOverhead
				bd.Shutdowns++
			} else {
				bd.Idle += t * pIdle
				bd.IdleTime += t
			}
		}
		cursor := 0.0
		for _, v := range tasks {
			charge(startSec[v] - cursor)
			cursor = finishSec[v]
		}
		charge(deadline - cursor)
	}
}
