package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/verify"
	"lamps/internal/workpool"
)

// Observer receives progress callbacks from a running Engine. Callbacks are
// serialised — the engine never invokes two hooks concurrently — so
// implementations need no locking of their own. Under a parallel engine the
// hooks run on worker goroutines inside the search; keep them fast. The
// *order* of OnScheduleBuilt/OnLevelEvaluated calls within a phase is the
// execution order and therefore not deterministic under parallelism; the
// totals are.
type Observer interface {
	// OnPhase marks the transition into a named phase of the search (see the
	// Phase* constants).
	OnPhase(name string)
	// OnScheduleBuilt reports one fresh list-scheduling invocation: the
	// processor count and the resulting makespan in cycles at maximum
	// frequency. Memoised re-uses are not reported.
	OnScheduleBuilt(nprocs int, makespanCycles int64)
	// OnLevelEvaluated reports one successful (schedule, level) energy
	// evaluation.
	OnLevelEvaluated(lvl power.Level, b energy.Breakdown)
}

// Phase names reported through Observer.OnPhase, in the order a full LAMPS
// run emits them.
const (
	PhaseMinProcs   = "min-procs"  // phase-1 binary search for the minimal feasible count
	PhaseSaturation = "saturation" // phase-2 binary search for the saturation count
	PhaseBuild      = "build"      // list-scheduling the candidate processor counts
	PhaseEvaluate   = "evaluate"   // energy evaluation / +PS level sweeps
	PhaseReclaim    = "reclaim"    // per-task DVS slack reclamation
	PhaseRefine     = "refine"     // voltage-island greedy descent
)

// Engine runs the heuristics with cooperative cancellation, progress
// observation and optional parallel search. The zero value plus a Config is
// a valid serial engine; the package-level LAMPS/ScheduleAndStretch/...
// functions are thin wrappers around it.
//
// Cancellation: Run returns ctx.Err() as soon as the current leaf work item
// — at most one ListSchedule call or one energy sweep step — completes after
// ctx is done. All internal goroutines have exited by the time Run returns,
// so a cancelled run holds no pool slots afterwards.
//
// Parallelism: with a non-nil Pool, phase 2 of the LAMPS-family searches
// builds its candidate schedules and evaluates its (schedule, level) sweeps
// on the pool's workers. The candidate set is fixed up front — the
// saturation count is located by binary search, which assumes the LS-EDF
// makespan is monotone in the processor count (the same assumption phase 1
// makes; Graham's anomalies can break it, see saturationPoint) — and
// results are reduced in the paper's deterministic tie-break order (lowest
// processor count first, the N_max fallback last, fastest level first), so
// a parallel engine returns results, including Stats, identical to the
// serial one.
type Engine struct {
	// Config carries the problem parameters, exactly as for the wrappers.
	Config Config
	// Observer, when non-nil, receives serialised progress callbacks.
	Observer Observer
	// Pool, when non-nil, supplies bounded parallelism for the candidate
	// builds and level sweeps. The engine holds at most one pool slot per
	// leaf work item and never nests acquisitions, so a single pool can be
	// shared by many engines (and by concurrent runs of one engine) without
	// deadlock at any pool size.
	Pool *workpool.Pool

	// Engine-level priority memo: EDF priorities depend only on the graph,
	// never on the deadline or the processor count, so repeated Run calls on
	// the same graph (a sweep evaluating many deadlines, the grid endpoint)
	// reuse one computation. Guarded by prioMu; see priorities.
	prioMu    sync.Mutex
	prioGraph *dag.Graph
	prioVals  []int64
}

// priorities returns the list-scheduling priorities for g, memoised per
// graph for the default EDF policy. A custom Config.Priorities function is
// never memoised — closures may carry state the engine cannot compare — so
// ablation policies keep their exact per-run semantics.
func (e *Engine) priorities(g *dag.Graph) []int64 {
	if e.Config.Priorities != nil {
		return e.Config.Priorities(g)
	}
	e.prioMu.Lock()
	defer e.prioMu.Unlock()
	if e.prioGraph != g {
		e.prioGraph = g
		e.prioVals = sched.EDFPriorities(g, 0)
	}
	return e.prioVals
}

// runPriorities is the run-internal variant of priorities: a warm memo hit
// is returned as-is, but a miss computes into the arena's scratch buffer
// instead of populating the memo — RunBatch's throwaway sub-engines never
// see the same graph twice, so memoising there would only allocate. The
// public priorities path (and its memo semantics) is untouched.
func (e *Engine) runPriorities(a *arena, g *dag.Graph) []int64 {
	if e.Config.Priorities != nil {
		return e.Config.Priorities(g)
	}
	e.prioMu.Lock()
	if e.prioGraph == g {
		p := e.prioVals
		e.prioMu.Unlock()
		return p
	}
	e.prioMu.Unlock()
	a.prio = sched.EDFPrioritiesInto(a.prio, g, 0)
	return a.prio
}

// Run dispatches an approach by name under ctx.
func (e *Engine) Run(ctx context.Context, approach string, g *dag.Graph) (*Result, error) {
	switch approach {
	case ApproachSS:
		return e.ss(ctx, ApproachSS, g, false)
	case ApproachSSPS:
		return e.ss(ctx, ApproachSSPS, g, true)
	case ApproachLAMPS:
		return e.lamps(ctx, ApproachLAMPS, g, false)
	case ApproachLAMPSPS:
		return e.lamps(ctx, ApproachLAMPSPS, g, true)
	case ApproachLimitSF:
		return e.limit(ctx, g, LimitSF)
	case ApproachLimitMF:
		return e.limit(ctx, g, LimitMF)
	}
	return nil, fmt.Errorf("%w: unknown approach %q", ErrBadConfig, approach)
}

// obsHub serialises Observer callbacks: engine phases may run on many
// goroutines, but hooks are delivered one at a time. A hub with a nil
// Observer is free to call into.
type obsHub struct {
	mu sync.Mutex
	o  Observer
}

func (h *obsHub) phase(name string) {
	if h.o == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.o.OnPhase(name)
}

func (h *obsHub) scheduleBuilt(nprocs int, makespanCycles int64) {
	if h.o == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.o.OnScheduleBuilt(nprocs, makespanCycles)
}

func (h *obsHub) levelEvaluated(lvl power.Level, b energy.Breakdown) {
	if h.o == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.o.OnLevelEvaluated(lvl, b)
}

// run is the per-invocation state shared by the engine's phases, embedded in
// the request's arena. pf is the machine the run schedules on: the config's
// platform, or — for a Model config — the single-class platform of that
// model, so the paper's identical-processor machine is simply the one-class
// case of the one platform path. fref is the frequency one schedule cycle
// corresponds to at full speed (pf.RefFMax()). cfg is a value copy so that
// no run state aliases the (possibly throwaway, stack-allocated) Engine
// that started it.
type run struct {
	ctx  context.Context
	cfg  Config
	pf   *power.Platform
	fref float64
	pool *workpool.Pool
	obs  obsHub
	sc   *scheduler
	a    *arena
}

// newRun validates the request and borrows an arena for it. Validation and
// the context check come first, so the error paths that never start a search
// touch no pooled state at all. On success the caller must arrange for the
// arena to be recycled (defer r.a.runGuard()).
func (e *Engine) newRun(ctx context.Context, g *dag.Graph) (*run, error) {
	if err := e.Config.validate(g); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pf, err := e.Config.platform(g)
	if err != nil {
		return nil, err
	}
	a := arenaPool.Get().(*arena)
	r := &a.r
	r.ctx = ctx
	r.cfg = e.Config
	r.pool = e.Pool
	r.a = a
	r.pf = pf
	r.fref = pf.RefFMax()
	r.obs.o = e.Observer
	a.sc.init(ctx, g, e.runPriorities(a, g), &r.obs, e.Config.SelfCheck, r.pf)
	r.sc = &a.sc
	return r, nil
}

// selfCheckResult is the result-level half of Config.SelfCheck: the winning
// breakdown at operating point pt — produced by the pooled O(log G)
// GapProfile path — is re-derived with the verifier's naive linear gap walk
// and must agree bit for bit. The schedule itself was already verified when
// it was built (see scheduler.at); the limits carry no schedule and are
// covered by the cross-heuristic invariants instead.
func (r *run) selfCheckResult(res *Result, pt power.OperatingPoint, ps bool) error {
	if !r.cfg.SelfCheck {
		return nil
	}
	var err error
	if res.Backups != nil {
		err = verify.PlatformEnergyFTMatches(res.Schedule, r.pf, res.Backups, pt, r.cfg.Deadline,
			energy.Options{PS: ps}, res.Energy)
	} else {
		err = verify.PlatformEnergyMatches(res.Schedule, r.pf, pt, r.cfg.Deadline,
			energy.Options{PS: ps}, res.Energy)
	}
	if err != nil {
		return fmt.Errorf("core: self-check: %s result: %w", res.Approach, err)
	}
	return nil
}

// each runs fn(i) for every i in [0, n): serially without a pool, otherwise
// concurrently with one pool slot per item. fn must confine its writes to
// slot i and must begin with a context check — a denied pool admission
// (context done while queued) falls back to calling fn inline and relies on
// that check to bail out, so no result slot is ever silently skipped. each
// returns only after every fn call has finished.
func (r *run) each(n int, fn func(i int)) {
	if r.pool == nil || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if err := r.pool.Do(r.ctx, func() { fn(i) }); err != nil {
				fn(i)
			}
		}(i)
	}
	wg.Wait()
}

// candidate is one processor count under evaluation in phase 2.
type candidate struct {
	n      int
	s      *sched.Schedule
	plan   *sched.BackupPlan    // fault-tolerant runs: the candidate's backup plan
	prof   *energy.GapProfile   // pooled; set lazily by profileIn, released by releaseProfiles
	pt     power.OperatingPoint // the winning operating point
	b      energy.Breakdown
	levels int // (schedule, level) evaluations charged to this candidate
	err    error
}

// feasCycles returns the cycle count the deadline must cover for this
// candidate: the recovery makespan when a backup plan is attached, the
// primary makespan otherwise. Feasibility and level sweeps are driven by
// this value, so fault-tolerant runs keep enough slack for recovery.
func (c *candidate) feasCycles() int64 {
	if c.plan != nil {
		return c.plan.RecoveryMakespan
	}
	return c.s.Makespan
}

// profilePool recycles gap profiles (sorted gap lengths, prefix sums)
// across candidates and runs, so steady-state level sweeps allocate
// nothing.
var profilePool = sync.Pool{New: func() any { return new(energy.GapProfile) }}

// profileIn returns the candidate's gap profile, extracting it per core
// class from the built schedule (and its backup plan, if any) on first use.
// Each candidate is profiled by exactly one goroutine; concurrent
// EvaluatePoint calls on the finished profile are safe.
func (c *candidate) profileIn(r *run) *energy.GapProfile {
	if c.prof == nil {
		c.prof = profilePool.Get().(*energy.GapProfile)
		c.prof.ResetPlatformFT(c.s, r.pf, c.plan)
	}
	return c.prof
}

// releaseProfiles returns every candidate's profile to the pool. Called
// (deferred) once the winning Breakdown has been copied out of the
// candidates; Results never retain a profile.
func releaseProfiles(cands []candidate) {
	for i := range cands {
		if c := &cands[i]; c.prof != nil {
			profilePool.Put(c.prof)
			c.prof = nil
		}
	}
}

// buildAll list-schedules every candidate, in parallel when a pool is set.
// Fault-tolerant runs additionally plan each candidate's backup layer here
// — placement depends only on the built schedule, so it parallelises the
// same way — and surface planning failures through wrapInfeasible (a
// machine too small for backups is an infeasibility of the configuration,
// like a deadline no level can meet).
func (r *run) buildAll(cands []candidate) error {
	r.obs.phase(PhaseBuild)
	ft := r.cfg.faultsOn()
	r.each(len(cands), func(i int) {
		c := &cands[i]
		c.s, c.err = r.sc.at(c.n)
		if c.err == nil && ft {
			c.plan, c.err = r.planBackups(c.s)
		}
	})
	for i := range cands {
		if cands[i].err != nil {
			return wrapInfeasible(cands[i].err)
		}
	}
	return nil
}

// planBackups plans the backup layer of one built schedule and, under
// SelfCheck, holds it to the independent plan verifier before the engine
// evaluates any energy on top of it.
func (r *run) planBackups(s *sched.Schedule) (*sched.BackupPlan, error) {
	plan, err := sched.PlanBackups(s, r.pf, r.cfg.faultPolicy())
	if err != nil {
		return nil, err
	}
	if r.cfg.SelfCheck {
		if verr := verify.FaultPlan(r.sc.g, s, plan, verify.FaultPlanOptions{
			Platform: r.pf,
			Policy:   r.cfg.faultPolicy(),
		}); verr != nil {
			return nil, fmt.Errorf("core: self-check: backup plan on %d processors: %w", s.NumProcs, verr)
		}
	}
	return plan, nil
}

// evalAll picks each candidate's operating point and energy. Without PS
// each candidate runs at its slowest feasible operating point; with PS (the
// +PS heuristics) every feasible point is evaluated — in parallel as flat
// (candidate, point) pairs when a pool is set.
func (r *run) evalAll(cands []candidate, ps bool) {
	r.obs.phase(PhaseEvaluate)
	if ps {
		r.evalPairs(cands)
		return
	}
	r.each(len(cands), func(i int) { r.evalMin(&cands[i]) })
}

// refLevel is the reference class's ladder level of pt: the run's single
// level on a one-class machine, and the Level reported to observers and
// homogeneous consumers on any platform.
func (r *run) refLevel(pt power.OperatingPoint) power.Level {
	return pt.Levels[r.pf.RefClass()]
}

// evalMin evaluates one candidate at its slowest feasible operating point —
// the full S&S stretch, used by the non-PS heuristics.
func (r *run) evalMin(c *candidate) {
	if err := r.ctx.Err(); err != nil {
		c.err = err
		return
	}
	pt, err := energy.MinFeasiblePointCycles(c.feasCycles(), r.pf, r.cfg.Deadline)
	if err != nil {
		c.err = err
		return
	}
	b, err := c.profileIn(r).EvaluatePoint(r.pf, pt, r.cfg.Deadline, energy.Options{})
	c.levels = 1
	if err != nil {
		c.err = err
		return
	}
	c.pt, c.b = pt, b
	r.obs.levelEvaluated(r.refLevel(pt), b)
}

// evalPairs evaluates every (candidate, feasible operating point) pair of
// the +PS sweep, flattened so that each pair is one leaf work item on the
// pool — a candidate's sweep never blocks holding a slot — then reduces
// each candidate's sweep in fastest-point-first order, matching the serial
// walk exactly. The flat pair slice is arena scratch: cands is fixed-size
// for the whole sweep, so the *candidate pointers into it stay valid.
func (r *run) evalPairs(cands []candidate) {
	pairs := r.a.pairs[:0]
	for i := range cands {
		c := &cands[i]
		if err := r.ctx.Err(); err != nil {
			c.err = err
			r.a.pairs = pairs
			return
		}
		points, err := energy.FeasiblePointsCycles(c.feasCycles(), r.pf, r.cfg.Deadline)
		if err != nil {
			c.err = err
			continue
		}
		c.profileIn(r) // extracted once here, shared read-only by all pairs
		for _, pt := range points {
			pairs = append(pairs, evalPair{c: c, pt: pt})
		}
	}
	r.a.pairs = pairs
	r.each(len(pairs), func(i int) {
		p := &pairs[i]
		if err := r.ctx.Err(); err != nil {
			p.err = err
			return
		}
		p.b, p.err = p.c.prof.EvaluatePoint(r.pf, p.pt, r.cfg.Deadline, energy.Options{PS: true})
		if p.err == nil {
			r.obs.levelEvaluated(r.refLevel(p.pt), p.b)
		}
	})
	// Pairs are enumerated per candidate fastest→slowest, so reducing in
	// slice order with a strict < reproduces the serial sweep's first-wins
	// tie-break.
	for i := range pairs {
		p := &pairs[i]
		c := p.c
		c.levels++
		if c.err != nil {
			continue
		}
		if p.err != nil {
			c.err = p.err
			continue
		}
		if c.levels == 1 || p.b.Total() < c.b.Total() {
			c.pt, c.b = p.pt, p.b
		}
	}
}

// stats assembles the run's Stats: fresh schedules from the memo, level
// counts summed over candidates in slice order — both independent of the
// execution interleaving, so serial and parallel runs report identical
// Stats.
func (r *run) stats(cands []candidate) Stats {
	s := Stats{SchedulesBuilt: r.sc.builtCount()}
	for i := range cands {
		s.LevelsEvaluated += cands[i].levels
	}
	return s
}

// reduce picks the winning candidate in the paper's deterministic order:
// strictly lower total energy wins, ties keep the earlier candidate (lower
// processor count, the N_max fallback last). Level is the winning point's
// reference-class level; on a heterogeneous machine the result additionally
// carries the platform and the winning operating point, while a
// single-class machine leaves both zero. Under Config.SelfCheck the winner's
// energy is re-derived before it is returned.
//
// A candidate whose schedule misses the deadline is skipped, as the paper's
// scan would skip an infeasible count; the run fails only when no candidate
// is feasible. Such candidates exist even though phase 1 checked both ends
// of the range: LS-EDF makespan is not monotone in the processor count
// (Graham's anomalies), and on the fault-tolerant path phase 1 sizes the
// range by the primary makespan, so the smallest counts can still be
// recovery-infeasible. Any other error fails the run, first in candidate
// order, as the serial walk did.
//
// The winning schedule is detached with CloneCompact: the memoised original
// is arena scratch and will be recycled when the run closes, while the
// Result may outlive the request indefinitely (the serving layer's cache
// keeps rendered results).
func reduce(r *run, approach string, g *dag.Graph, cands []candidate, ps bool) (*Result, error) {
	var firstErr error
	var best *candidate
	for i := range cands {
		c := &cands[i]
		if c.err != nil {
			if errors.Is(c.err, energy.ErrDeadline) {
				if firstErr == nil {
					firstErr = c.err
				}
				continue
			}
			return nil, wrapInfeasible(c.err)
		}
		if best == nil || c.b.Total() < best.b.Total() {
			best = c
		}
	}
	if best == nil {
		return nil, wrapInfeasible(firstErr)
	}
	res := &Result{
		Approach: approach,
		Graph:    g,
		NumProcs: best.n,
		Level:    r.refLevel(best.pt),
		Schedule: best.s.CloneCompact(),
		Backups:  best.plan, // owned by this candidate, never pooled
		Energy:   best.b,
	}
	if r.cfg.heterogeneous() {
		res.Platform = r.pf
		res.Point = best.pt
	}
	if err := r.selfCheckResult(res, best.pt, ps); err != nil {
		return nil, err
	}
	return res, nil
}

// ss implements the shared S&S structure: schedule on as many processors as
// the graph can occupy — the machine is assumed to have at least as many
// processors as the maximum task concurrency, so the EDF schedule dispatches
// every task at its earliest start — then trade the remaining slack for DVS
// (and, with ps, processor shutdown). Every processor that executes at least
// one task is employed and stays on, which is precisely the wastefulness
// LAMPS improves upon: in the paper's Fig. 4 example S&S employs 3
// processors although 2 would reach the same makespan.
func (e *Engine) ss(ctx context.Context, approach string, g *dag.Graph, ps bool) (*Result, error) {
	r, err := e.newRun(ctx, g)
	if err != nil {
		return nil, err
	}
	defer r.a.runGuard()
	cands := append(r.a.cands[:0], candidate{n: r.cfg.maxUsefulProcs(g)})
	r.a.cands = cands
	defer releaseProfiles(cands)
	if err := r.buildAll(cands); err != nil {
		return nil, err
	}
	r.evalAll(cands, ps)
	best, err := reduce(r, approach, g, cands, ps)
	if err != nil {
		return nil, err
	}
	best.NumProcs = cands[0].s.ProcsUsed()
	if best.Backups != nil {
		// Backup-only processors must stay powered too.
		best.NumProcs = best.Backups.EmployedWith(cands[0].s)
	}
	best.Stats = r.stats(cands)
	return best, nil
}

// lamps implements the shared LAMPS structure (Fig. 5 and Fig. 8 of the
// paper): a binary search for the minimal feasible processor count, then an
// evaluation of every count up to the saturation point — where adding
// processors stops reducing the makespan — because the energy as a function
// of the processor count has local minima (Fig. 6), so no count in that
// range can be skipped.
func (e *Engine) lamps(ctx context.Context, approach string, g *dag.Graph, ps bool) (*Result, error) {
	r, err := e.newRun(ctx, g)
	if err != nil {
		return nil, err
	}
	defer r.a.runGuard()
	cands, err := r.candidates(g)
	if err != nil {
		return nil, err
	}
	defer releaseProfiles(cands)
	r.evalAll(cands, ps)
	best, err := reduce(r, approach, g, cands, ps)
	if err != nil {
		return nil, err
	}
	best.Stats = r.stats(cands)
	return best, nil
}

// candidates runs the LAMPS search for the candidate processor counts and
// list-schedules each of them into arena scratch: phase 1 binary-searches
// the minimal count meeting the deadline, phase 2 takes every count from
// there up to the saturation point, and N_max is added when the range stops
// short of it.
func (r *run) candidates(g *dag.Graph) ([]candidate, error) {
	r.obs.phase(PhaseMinProcs)
	hi := r.cfg.maxUsefulProcs(g)
	nmin, err := r.sc.minProcsForDeadline(r.cfg.Deadline*r.fref, hi)
	if err != nil {
		return nil, err
	}
	if r.cfg.faultsOn() && nmin < 2 {
		// Backups need a second processor; maxUsefulProcs guarantees hi >= 2.
		nmin = 2
	}
	r.obs.phase(PhaseSaturation)
	nstop, err := r.sc.saturationPoint(nmin, hi)
	if err != nil {
		return nil, err
	}
	cands := r.a.cands[:0]
	for n := nmin; n <= nstop; n++ {
		cands = append(cands, candidate{n: n})
	}
	if nstop < hi {
		// Also consider N_max, the "as many processors as can be employed
		// efficiently" configuration that S&S uses, so the LAMPS search space
		// always contains the S&S(+PS) solution: with shutdown available,
		// wider schedules can consolidate idle time into fewer, longer,
		// sleepable gaps, so skipping it could make LAMPS+PS worse than
		// S&S+PS.
		cands = append(cands, candidate{n: hi})
	}
	r.a.cands = cands
	return cands, r.buildAll(cands)
}

// limit wraps the closed-form LIMIT-SF/MF bounds with the engine's context
// and observer conventions.
func (e *Engine) limit(ctx context.Context, g *dag.Graph, fn func(*dag.Graph, Config) (*Result, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hub := obsHub{o: e.Observer}
	hub.phase(PhaseEvaluate)
	return fn(g, e.Config)
}
