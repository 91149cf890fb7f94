package core

import (
	"context"
	"fmt"
	"sort"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// ApproachIslands names the per-processor frequency extension.
const ApproachIslands = "VoltageIslands"

// IslandsResult is the outcome of the voltage-island extension: every
// processor keeps its own constant operating point for the whole schedule
// (a realistic hardware constraint between the paper's single global
// frequency and fully per-task DVS).
type IslandsResult struct {
	Graph    *dag.Graph
	NumProcs int
	Schedule *sched.Schedule

	// ProcLevels[p] is the operating point of processor p. StartSec and
	// FinishSec are the resulting per-task times in seconds.
	ProcLevels []power.Level
	StartSec   []float64
	FinishSec  []float64

	Energy energy.Breakdown
	Stats  Stats
}

// TotalEnergy returns the total energy in joules.
func (r *IslandsResult) TotalEnergy() float64 { return r.Energy.Total() }

// MakespanSec returns the end of the last task in seconds.
func (r *IslandsResult) MakespanSec() float64 {
	var m float64
	for _, f := range r.FinishSec {
		if f > m {
			m = f
		}
	}
	return m
}

func (r *IslandsResult) String() string {
	return fmt.Sprintf("%s: %.6g J on %d processor(s), makespan %.4gs",
		ApproachIslands, r.TotalEnergy(), r.NumProcs, r.MakespanSec())
}

// VoltageIslands is an *extension beyond the paper*: each processor runs at
// its own constant voltage/frequency, addressing the future-work question
// of Section 6 ("having processors run at their own frequency"). The search
// starts from the LAMPS(+PS) solution — every processor at its common level
// — and greedily lowers one processor's level at a time, keeping the change
// whenever the schedule (same assignment and per-processor order, timings
// recomputed) still meets the deadline and the energy drops. With ps, idle
// gaps longer than each processor's own break-even time are served by
// sleep, and no island descends below the critical level.
func VoltageIslands(g *dag.Graph, cfg Config, ps bool) (*IslandsResult, error) {
	return VoltageIslandsCtx(context.Background(), g, cfg, ps)
}

// VoltageIslandsCtx is VoltageIslands with cooperative cancellation.
func VoltageIslandsCtx(ctx context.Context, g *dag.Graph, cfg Config, ps bool) (*IslandsResult, error) {
	return (&Engine{Config: cfg}).Islands(ctx, g, ps)
}

// Islands runs the voltage-island extension on the engine: the LAMPS(+PS)
// base search benefits from the engine's pool, then the greedy per-island
// descent runs serially (each step depends on the previous acceptance) with
// a context check per candidate evaluation. Each island starts at its
// class's level of the base operating point and descends its own class's
// ladder, never below that class's critical level (with ps) or ladder
// floor.
func (e *Engine) Islands(ctx context.Context, g *dag.Graph, ps bool) (*IslandsResult, error) {
	if e.Config.faultsOn() {
		// The greedy descent re-times tasks per island, which would strand
		// the statically planned backup slots; fault tolerance is limited to
		// the uniform-frequency heuristics for now.
		return nil, fmt.Errorf("%w: the voltage-island extension does not support fault tolerance", ErrBadConfig)
	}
	base, err := e.lamps(ctx, ApproachLAMPSPS, g, ps)
	if err != nil {
		return nil, err
	}
	hub := obsHub{o: e.Observer}
	hub.phase(PhaseRefine)
	pf, err := e.Config.platform(g)
	if err != nil {
		return nil, err
	}
	deadline := e.Config.Deadline
	s := base.Schedule
	stats := base.Stats

	levels := make([]power.Level, s.NumProcs)
	minIdx := make([]int, s.NumProcs)
	for p := range levels {
		m := pf.ModelOf(p)
		if pf.IsHomogeneous() {
			levels[p] = base.Level // a single-class result keeps Point zero
		} else {
			levels[p] = base.Point.Levels[pf.ClassOf(p)]
		}
		mi := len(m.Levels()) - 1
		if ps {
			mi = m.CriticalLevel().Index
		}
		if levels[p].Index > mi {
			mi = levels[p].Index // never raise an island above its start
		}
		minIdx[p] = mi
	}

	best := islandEval(s, pf, levels, deadline, ps, &stats)
	if best == nil {
		return nil, fmt.Errorf("%w: base configuration infeasible", ErrInfeasible)
	}
	for improved := true; improved; {
		improved = false
		for p := 0; p < s.NumProcs; p++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if len(s.TasksOn(p)) == 0 || levels[p].Index >= minIdx[p] {
				continue
			}
			m := pf.ModelOf(p)
			levels[p] = m.Level(levels[p].Index + 1)
			cand := islandEval(s, pf, levels, deadline, ps, &stats)
			if cand != nil && cand.Energy.Total() < best.Energy.Total() {
				best = cand
				improved = true
			} else {
				levels[p] = m.Level(levels[p].Index - 1) // revert
			}
		}
	}
	best.Graph = g
	best.NumProcs = base.NumProcs
	best.Stats = stats
	return best, nil
}

// islandEval recomputes the schedule timing for per-processor levels (fixed
// assignment and per-processor order) and integrates the energy; nil when
// the deadline is missed. Durations, active powers, idle powers and
// break-even times all come from each processor's own class.
func islandEval(s *sched.Schedule, pf *power.Platform, levels []power.Level, deadline float64, ps bool, stats *Stats) *IslandsResult {
	stats.LevelsEvaluated++
	g := s.Graph
	n := g.NumTasks()
	r := &IslandsResult{
		Schedule:   s,
		ProcLevels: append([]power.Level(nil), levels...),
		StartSec:   make([]float64, n),
		FinishSec:  make([]float64, n),
	}
	// Forward pass in original start order: precedence and processor order
	// are preserved, only durations change.
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool { return s.Start[order[i]] < s.Start[order[j]] })
	procFree := make([]float64, s.NumProcs)
	var bd energy.Breakdown
	for _, v32 := range order {
		v := int(v32)
		p := s.Proc[v]
		lvl := levels[p]
		st := procFree[p]
		for _, pred := range g.Preds(v) {
			if r.FinishSec[pred] > st {
				st = r.FinishSec[pred]
			}
		}
		dur := float64(g.Weight(v)) / lvl.Freq
		fin := st + dur
		if fin > deadline*(1+1e-12) {
			return nil
		}
		r.StartSec[v] = st
		r.FinishSec[v] = fin
		procFree[p] = fin
		bd.Active += dur * pf.ModelOf(int(p)).LevelPower(lvl)
		bd.ActiveTime += dur
	}
	// Gaps per processor at that processor's level.
	chargeGaps(&bd, s, pf, levels, r.StartSec, r.FinishSec, deadline, ps)
	r.Energy = bd
	return r
}
