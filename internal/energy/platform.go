package energy

import (
	"fmt"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// MinFeasiblePoint returns the slowest platform operating point at which
// the schedule's timeline makespan still fits the deadline — the platform
// analogue of MinFeasibleLevel.
func MinFeasiblePoint(s *sched.Schedule, pf *power.Platform, deadlineSec float64) (power.OperatingPoint, error) {
	return MinFeasiblePointCycles(s.Makespan, pf, deadlineSec)
}

// MinFeasiblePointCycles is MinFeasiblePoint for an explicit timeline cycle
// count — the fault-tolerant engine passes the recovery makespan here.
func MinFeasiblePointCycles(makespan int64, pf *power.Platform, deadlineSec float64) (power.OperatingPoint, error) {
	if deadlineSec <= 0 {
		return power.OperatingPoint{}, fmt.Errorf("%w: non-positive deadline", ErrDeadline)
	}
	need := float64(makespan) / deadlineSec
	pt, err := pf.PointForFrequency(need)
	if err != nil {
		// On a single class the timeline cycle is the model's own cycle.
		unit := "timeline cycles"
		if pf.IsHomogeneous() {
			unit = "cycles"
		}
		return power.OperatingPoint{}, fmt.Errorf("%w: need %.4g Hz for makespan %d %s in %.4gs",
			ErrDeadline, need, makespan, unit, deadlineSec)
	}
	return pt, nil
}

// FeasiblePoints returns every platform operating point at which the
// schedule meets the deadline, fastest first — the grid the heterogeneous
// +PS sweep iterates.
func FeasiblePoints(s *sched.Schedule, pf *power.Platform, deadlineSec float64) ([]power.OperatingPoint, error) {
	return FeasiblePointsCycles(s.Makespan, pf, deadlineSec)
}

// FeasiblePointsCycles is FeasiblePoints for an explicit timeline cycle
// count.
func FeasiblePointsCycles(makespan int64, pf *power.Platform, deadlineSec float64) ([]power.OperatingPoint, error) {
	min, err := MinFeasiblePointCycles(makespan, pf, deadlineSec)
	if err != nil {
		return nil, err
	}
	return pf.Points()[:min.Index+1], nil
}
