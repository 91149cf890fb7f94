package core

import (
	"sync"
	"sync/atomic"

	"lamps/internal/energy"
	"lamps/internal/power"
)

// arena is the per-request scratch of one engine invocation: the run state,
// the memoising scheduler, the candidate and sweep-pair slices, the EDF
// priority buffer and a free list of recycled Schedule shells. A request
// borrows one arena from arenaPool for its whole lifetime and returns it on
// normal completion (success or error), so a warm steady stream of requests
// — RunBatch's worker loop above all — reuses the same handful of buffers
// instead of reallocating them per request.
//
// Ownership contract: everything reachable from an arena is scratch. A
// Result that outlives the request must not alias arena memory — reduce
// detaches the winning schedule with CloneCompact before the arena is
// recycled. close nils every graph/context/schedule reference so a pooled
// arena pins neither a request's DAG nor its context, and a run that panics
// must *drop* its arena (see runGuard): a half-written arena never re-enters
// the pool.
type arena struct {
	r  run
	sc scheduler

	cands []candidate // phase-2 candidate set, value slice
	pairs []evalPair  // flattened (candidate, operating point) sweep pairs
	prio  []int64     // EDF priority scratch for engines without a warm memo
}

// evalPair is one (candidate, operating point) leaf work item of a +PS
// sweep.
type evalPair struct {
	c   *candidate
	pt  power.OperatingPoint
	b   energy.Breakdown
	err error
}

// singleClassMemo holds the single-class platform of the most recent Model
// config. Platforms are immutable, so sharing one across runs and
// goroutines is safe; a run on another model or on a wider graph replaces
// it. One entry keeps configs that build a fresh model per run from
// accumulating platforms.
var singleClassMemo atomic.Pointer[power.Platform]

// singleClass returns the single-class platform of model m with at least n
// processors: the paper's identical-processor machine on the one platform
// path. Its grid is m's ladder bit for bit, so a Model config schedules and
// prices exactly as the model itself would. A warm stream of runs on one
// model reuses the memoised platform instead of building one per run.
func singleClass(m *power.Model, n int) (*power.Platform, error) {
	if pf := singleClassMemo.Load(); pf != nil && pf.ClassModel(0) == m && pf.NumProcs() >= n {
		return pf, nil
	}
	pf, err := power.Homogeneous(n, m)
	if err != nil {
		return nil, err
	}
	singleClassMemo.Store(pf)
	return pf, nil
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// close recycles the arena after a completed run: every memoised schedule
// becomes a reusable shell, and every pointer that could keep the request's
// graph, context or results alive is cleared. The slices keep their capacity
// — that is the whole point of the pool.
func (a *arena) close() {
	a.sc.recycleSchedules()
	a.sc.ctx = nil
	a.sc.g = nil
	a.sc.prio = nil
	a.sc.obs = nil
	a.sc.pf = nil
	a.sc.built = 0

	clear(a.cands)
	a.cands = a.cands[:0]
	clear(a.pairs)
	a.pairs = a.pairs[:0]

	a.r = run{}
	arenaPool.Put(a)
}

// runGuard is deferred around every approach body that holds an arena: a
// normal return (success or error) recycles the arena, a panic deliberately
// leaks it to the garbage collector — the panic may have interrupted any
// invariant, so the arena must never re-enter the pool — and is re-raised
// for the caller's recover barrier (RunBatch's ErrBatchPanic isolation).
func (a *arena) runGuard() {
	if p := recover(); p != nil {
		panic(p)
	}
	a.close()
}
