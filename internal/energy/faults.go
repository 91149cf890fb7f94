package energy

import (
	"sort"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// Fault-tolerant gap profiles: the backup slots of a sched.BackupPlan
// occupy the schedule's gaps, so they are neither sleepable nor part of any
// inner gap. ResetFT/ResetPlatformFT build each processor's merged
// primary+backup timeline — backup slots split gaps exactly like task slots
// — and accumulate the reserved cycles separately; Evaluate/EvaluatePoint
// charge them as idle time at the operating point's idle power, in both the
// PS and non-PS modes (a reserved processor must stay awake to take over
// the moment a fault is detected). The profile's makespan is the recovery
// makespan, so the existing deadline check covers recovery feasibility.

// ResetFT re-extracts the profile of a schedule on identical processors
// with plan's backup slots reserved. Evaluate it with Evaluate.
func (p *GapProfile) ResetFT(s *sched.Schedule, plan *sched.BackupPlan) { p.reset(s, nil, plan) }

// ResetPlatformFT is ResetFT for a platform schedule: the merged timelines
// are bucketed by core class, busy totals count primary slots only, and
// each class accumulates its own reserved cycles. Evaluate it with
// EvaluatePoint.
func (p *GapProfile) ResetPlatformFT(s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan) {
	p.reset(s, pf, plan)
}

// backupOrder returns the task indices sorted by (backup processor, backup
// start) into the profile's scratch, giving each processor's backups as one
// contiguous, start-ordered run. Plan slots on one processor never overlap,
// so the order is total.
func (p *GapProfile) backupOrder(plan *sched.BackupPlan) []int32 {
	n := len(plan.Proc)
	if cap(p.ftOrder) < n {
		p.ftOrder = make([]int32, n)
	}
	p.ftOrder = p.ftOrder[:n]
	for v := range p.ftOrder {
		p.ftOrder[v] = int32(v)
	}
	sort.Slice(p.ftOrder, func(i, j int) bool {
		vi, vj := p.ftOrder[i], p.ftOrder[j]
		if plan.Proc[vi] != plan.Proc[vj] {
			return plan.Proc[vi] < plan.Proc[vj]
		}
		return plan.Start[vi] < plan.Start[vj]
	})
	return p.ftOrder
}
