package energy

import (
	"fmt"
	"slices"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// GapProfile is the idle-interval structure of one schedule, extracted once
// and then shared by every per-level energy evaluation. It splits a
// schedule's idle time into the part that is fixed by the schedule (the
// inner gaps: before the first task and between consecutive tasks of each
// employed processor) and the part parameterised by the horizon (the
// trailing slack of each employed processor from its last finish to the
// deadline). Both parts are kept sorted with exact integer prefix sums, so
// one Evaluate at an operating point is two binary searches over the
// break-even threshold plus O(1) arithmetic — O(log G) per level instead of
// the O(G) per-gap walk, which turns the +PS frequency sweep from
// O(levels × gaps) into O(gaps·log gaps + levels·log gaps).
//
// The accounting is identical to the per-gap walk: a gap of g cycles at
// level l lasts t = g/f(l) seconds and sleeps exactly when PS is enabled and
// t exceeds the break-even time. Because gap durations are integers in
// cycles, classifying by t is monotone in g, which is what makes the
// threshold binary-searchable; the idle/sleep cycle totals are summed in
// int64 (exact, order-independent) and converted to seconds and joules once,
// so the profile path and the linear reference walk agree bit-for-bit (see
// TestGapProfileParity).
//
// The zero value is empty; Reset (or ResetPlatform, ResetFT,
// ResetPlatformFT) loads a schedule. A profile reused across schedules of
// the same shape performs no steady-state allocations. It is immutable
// between Resets and safe for concurrent Evaluate calls.
type GapProfile struct {
	// makespan is the cycle count the deadline must cover: the schedule's
	// makespan, or the recovery makespan when backups are reserved.
	makespan int64

	// first and more hold one profile per core class: first is class 0 —
	// the only class of the identical-processor machine, which therefore
	// needs no slice of class profiles — and more holds classes 1.. of a
	// platform.
	first classGaps
	more  []classGaps

	// ftOrder is ResetFT/ResetPlatformFT scratch: task indices sorted by
	// (backup processor, backup start).
	ftOrder []int32
}

// classGaps is the profile of the processors of one core class: the busy
// totals plus the class's own sorted inner-gap and last-finish arrays with
// exact prefix sums (each class has its own power constants and break-even
// time, so gaps are classified per class).
type classGaps struct {
	busySlot int64 // timeline cycles occupied by task slots on this class
	busyWork int64 // raw work cycles executed by this class (sum of weights)

	// reserved counts the timeline cycles held by statically planned backup
	// slots (ResetFT/ResetPlatformFT). A reserved processor cannot sleep — it
	// must be ready to take over the instant a fault is detected — so these
	// cycles are charged as idle time regardless of the PS option. Zero
	// without a backup plan, keeping the non-fault-tolerant accounting
	// bit-identical.
	reserved int64

	inner    []int64 // inner gap lengths in timeline cycles, sorted ascending
	innerSum []int64 // innerSum[i] = sum of inner[:i]; len(inner)+1
	last     []int64 // per-employed-processor last finish, sorted ascending
	lastSum  []int64 // lastSum[i] = sum of last[:i]; len(last)+1
}

// class returns the profile of core class c.
func (p *GapProfile) class(c int) *classGaps {
	if c == 0 {
		return &p.first
	}
	return &p.more[c-1]
}

// NewGapProfile returns the profile of s. Equivalent to a Reset on a zero
// profile.
func NewGapProfile(s *sched.Schedule) *GapProfile {
	p := new(GapProfile)
	p.Reset(s)
	return p
}

// Reset re-extracts the profile of a schedule on identical processors,
// reusing the profile's buffers. Evaluate it with Evaluate.
func (p *GapProfile) Reset(s *sched.Schedule) { p.reset(s, nil, nil) }

// ResetPlatform re-extracts the profile of a platform schedule: gaps, last
// finishes and busy totals are bucketed by the core class of each
// processor. Evaluate it with EvaluatePoint.
func (p *GapProfile) ResetPlatform(s *sched.Schedule, pf *power.Platform) { p.reset(s, pf, nil) }

// reset is the one gap walk behind every Reset variant. A nil pf is the
// identical-processor machine (one class); a nil plan reserves no backup
// slots. Each employed processor's timeline — its primary slots merged with
// its backup slots in start order — is walked once: the gaps between slots
// are inner gaps, the last slot's end is the processor's last finish, and
// backup slots add to the class's reserved cycles. A processor with neither
// tasks nor backups is off and contributes nothing. Buffers, including the
// per-class slices, are reused, so steady-state reuse allocates nothing.
func (p *GapProfile) reset(s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan) {
	p.makespan = s.Makespan
	var order []int32
	if plan != nil {
		if plan.RecoveryMakespan > p.makespan {
			p.makespan = plan.RecoveryMakespan
		}
		order = p.backupOrder(plan)
	}
	nc := 1
	if pf != nil {
		nc = pf.NumClasses()
	}
	if cap(p.more) < nc-1 {
		p.more = make([]classGaps, nc-1)
	}
	p.more = p.more[:nc-1]
	for c := 0; c < nc; c++ {
		cg := p.class(c)
		cg.busySlot, cg.busyWork, cg.reserved = 0, 0, 0
		cg.inner = cg.inner[:0]
		cg.last = cg.last[:0]
	}
	// With one class every task runs on it at scale 1, so its busy time is
	// the graph's total work and the walk need not sum slots and weights.
	g := s.Graph
	perClass := nc > 1
	if !perClass {
		p.first.busySlot = g.TotalWork()
		p.first.busyWork = p.first.busySlot
	}
	i := 0
	for proc := 0; proc < s.NumProcs; proc++ {
		tasks := s.TasksOn(proc)
		j := i
		for i < len(order) && int(plan.Proc[order[i]]) == proc {
			i++
		}
		backs := order[j:i]
		if len(tasks) == 0 && len(backs) == 0 {
			continue // unemployed processors are off and contribute nothing
		}
		cg := &p.first
		if pf != nil {
			cg = p.class(pf.ClassOf(proc))
		}
		// Accumulate in locals and store once per processor: the walk is
		// the hot part of every candidate's profile.
		inner := cg.inner
		var cursor, slot, work, reserved int64
		ti, bi := 0, 0
		for ti < len(tasks) || bi < len(backs) {
			var start, finish int64
			if bi == len(backs) || (ti < len(tasks) && s.Start[tasks[ti]] <= plan.Start[backs[bi]]) {
				v := tasks[ti]
				start, finish = s.Start[v], s.Finish[v]
				if perClass {
					slot += finish - start
					work += g.Weight(int(v))
				}
				ti++
			} else {
				v := backs[bi]
				start, finish = plan.Start[v], plan.Finish[v]
				reserved += finish - start
				bi++
			}
			if start > cursor {
				inner = append(inner, start-cursor)
			}
			cursor = finish
		}
		cg.inner = inner
		cg.busySlot += slot
		cg.busyWork += work
		cg.reserved += reserved
		cg.last = append(cg.last, cursor)
	}
	for c := 0; c < nc; c++ {
		cg := p.class(c)
		slices.Sort(cg.inner)
		slices.Sort(cg.last)
		cg.innerSum = prefixSums(cg.innerSum, cg.inner)
		cg.lastSum = prefixSums(cg.lastSum, cg.last)
	}
}

// prefixSums writes the prefix sums of src into dst (reused when capacity
// allows): dst[i] = src[0]+…+src[i-1], len(dst) = len(src)+1.
func prefixSums(dst, src []int64) []int64 {
	if cap(dst) < len(src)+1 {
		dst = make([]int64, len(src)+1)
	}
	dst = dst[:len(src)+1]
	dst[0] = 0
	for i, v := range src {
		dst[i+1] = dst[i] + v
	}
	return dst
}

// Evaluate computes the energy of executing the profiled schedule on
// identical processors of model m at operating point lvl with the machine
// available until deadlineSec, exactly as the package-level Evaluate does —
// same deadline check, same gap classification, same totals — in O(log G)
// instead of O(G).
func (p *GapProfile) Evaluate(m *power.Model, lvl power.Level, deadlineSec float64, opts Options) (Breakdown, error) {
	levels := [1]power.Level{lvl}
	pt := power.OperatingPoint{Index: lvl.Index, Norm: lvl.Norm, TimelineFreq: lvl.Freq, Levels: levels[:]}
	return p.evaluate(nil, m, &pt, deadlineSec, opts)
}

// EvaluatePoint computes the energy of executing the platform-profiled
// schedule at operating point pt with the machine available until
// deadlineSec. The timeline runs at pt.TimelineFreq, so every slot of c
// timeline cycles lasts c/TimelineFreq seconds; within its slot a task
// executes its raw work cycles at its class's ladder level and the slot
// remainder (ceil rounding plus any discrete-level headroom) is charged as
// idle time at the class's idle power. Gaps are classified against each
// class's own break-even time.
//
// All cycle totals are exact int64 sums converted to seconds once per
// class, in ascending class order, so the result is bit-identical to the
// independent per-gap walk in internal/verify (PlatformEnergy).
func (p *GapProfile) EvaluatePoint(pf *power.Platform, pt power.OperatingPoint, deadlineSec float64, opts Options) (Breakdown, error) {
	return p.evaluate(pf, nil, &pt, deadlineSec, opts)
}

// evaluate is the one per-class evaluator behind Evaluate and
// EvaluatePoint. Class c runs at pt.Levels[c] with the power constants of
// pf's class c, or of m when pf is nil (the identical-processor machine,
// whose only class runs at a ladder level: its timeline frequency is the
// level's own, so the intra-slot idle term vanishes exactly).
func (p *GapProfile) evaluate(pf *power.Platform, m *power.Model, pt *power.OperatingPoint, deadlineSec float64, opts Options) (Breakdown, error) {
	var b Breakdown
	ft := pt.TimelineFreq
	makespanSec := float64(p.makespan) / ft
	if makespanSec > deadlineSec*(1+1e-12) {
		return b, missedAt(makespanSec, deadlineSec, pt)
	}
	// The horizon is expressed in timeline cycles at pt so that gap lengths
	// convert to seconds by dividing by the timeline frequency.
	horizon := int64(deadlineSec * ft)
	if horizon < p.makespan {
		horizon = p.makespan // guard against float truncation
	}

	for c := 0; c <= len(p.more); c++ {
		cg := p.class(c)
		if len(cg.last) == 0 {
			continue // class has no employed processor
		}
		cm := m
		if pf != nil {
			cm = pf.ClassModel(c)
		}
		lvl := pt.Levels[c]

		// Active: every cycle of the class's work costs P(lvl)/f(lvl) joules.
		activeT := float64(cg.busyWork) / lvl.Freq
		b.ActiveTime += activeT
		b.Active += activeT * cm.LevelPower(lvl)
		if opts.IgnoreIdle {
			continue
		}

		// Intra-slot idle: the slot time not covered by execution (ceil
		// rounding of scaled weights plus discrete-level headroom). Zero by
		// construction on a single class at a ladder-exact point.
		pIdle := cm.IdlePower(lvl)
		if intra := float64(cg.busySlot)/ft - activeT; intra > 0 {
			b.IdleTime += intra
			b.Idle += intra * pIdle
		}

		nEmp := len(cg.last)
		var idleCycles, sleepCycles int64
		shutdowns := 0
		if opts.PS {
			breakeven := cm.BreakevenTime(lvl)
			// Inner gaps are sorted ascending, so "sleeps" is a suffix:
			// binary search the first index whose duration exceeds the
			// break-even time.
			i := firstAbove(cg.inner, func(g int64) bool {
				return float64(g)/ft > breakeven
			})
			idleCycles = cg.innerSum[i]
			sleepCycles = cg.innerSum[len(cg.inner)] - cg.innerSum[i]
			shutdowns = len(cg.inner) - i
			// Trailing slack horizon−last shrinks as last grows, so "sleeps"
			// is a prefix of the sorted last-finish times.
			j := firstAbove(cg.last, func(lf int64) bool {
				return float64(horizon-lf)/ft <= breakeven
			})
			sleepCycles += int64(j)*horizon - cg.lastSum[j]
			idleCycles += int64(nEmp-j)*horizon - (cg.lastSum[nEmp] - cg.lastSum[j])
			shutdowns += j
		} else {
			idleCycles = cg.innerSum[len(cg.inner)] + int64(nEmp)*horizon - cg.lastSum[nEmp]
		}
		// Backup reservations are idle-but-awake in either mode; zero
		// without a backup plan.
		idleCycles += cg.reserved

		idleT := float64(idleCycles) / ft
		b.IdleTime += idleT
		b.Idle += idleT * pIdle
		sleepT := float64(sleepCycles) / ft
		b.SleepTime += sleepT
		b.Sleep += sleepT * cm.PSleep
		b.Shutdowns += shutdowns
		b.Overhead += float64(shutdowns) * cm.EOverhead
	}
	return b, nil
}

// missedAt is evaluate's deadline error, naming the level on a single class
// and the operating point otherwise. It is a function of its own so the
// formatting does not enlarge the evaluator's stack frame: the engine calls
// the evaluator on freshly started goroutines, where a larger frame costs a
// stack copy per call.
func missedAt(makespanSec, deadlineSec float64, pt *power.OperatingPoint) error {
	at := pt.String()
	if len(pt.Levels) == 1 {
		at = pt.Levels[0].String()
	}
	return fmt.Errorf("%w: makespan %.6gs > deadline %.6gs at %s", ErrDeadline, makespanSec, deadlineSec, at)
}

// firstAbove returns the smallest index i in the sorted slice s for which
// pred(s[i]) is true, or len(s) when none is. pred must be monotone
// (false…false true…true along s). A hand-rolled binary search keeps the
// predicate closure on the stack — sort.Search is equivalent but gives the
// escape analyser a harder time.
func firstAbove(s []int64, pred func(int64) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
