package sched

import (
	"fmt"
	"math"

	"lamps/internal/dag"
	"lamps/internal/power"
)

// Scheduler is a reusable scratch space for list scheduling. The zero value
// is ready to use; after the first call every buffer is retained, so
// steady-state ScheduleInto and ScheduleIntoPlatform perform no allocations
// at all (asserted by TestScheduleIntoSteadyStateZeroAlloc and enforced in
// CI). A Scheduler is not safe for concurrent use; pool instances across
// goroutines (the core engine keeps them in a sync.Pool).
type Scheduler struct {
	indeg   []int32
	ready   []readyItem   // min-heap: ready tasks by (priority, task)
	pending []finishEvent // min-heap: released-in-the-future tasks by (release, task)
	running []finishEvent // min-heap: running tasks by (finish, task)
	idle    []procID      // min-heap: idle processors of class 0
	more    [][]procID    // min-heaps: idle processors of classes 1.. of a platform
	order   []int32       // tasks in dispatch order, for the byProc counting sort
	cursor  []int32       // per-processor write cursor of the counting sort
}

// idleOf returns the idle-processor heap of class c. Class 0 has a field of
// its own, so scratch for the one-class machine needs no slice of heaps.
func (k *Scheduler) idleOf(c int) *[]procID {
	if c == 0 {
		return &k.idle
	}
	return &k.more[c-1]
}

// procID is a processor index with the heap ordering "lowest index first",
// which makes dispatch deterministic.
type procID int32

func (a procID) lessThan(b procID) bool { return a < b }

// readyItem is an entry of the ready heap.
type readyItem struct {
	task int32
	prio int64
}

func (a readyItem) lessThan(b readyItem) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.task < b.task
}

// finishEvent is a running task completion (or a pending release) in an
// event queue.
type finishEvent struct {
	finish int64
	task   int32
}

func (a finishEvent) lessThan(b finishEvent) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.task < b.task
}

// grow returns s resized to n elements, reusing the backing array when the
// capacity suffices. Contents are unspecified; callers overwrite every slot.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// ErrBadPlatform is returned when the platform is nil or the requested
// processor count exceeds the platform's size.
var ErrBadPlatform = fmt.Errorf("sched: invalid platform or processor count")

var errNilPlatform = fmt.Errorf("%w: nil platform", ErrBadPlatform)

// ScheduleInto runs event-driven, work-conserving list scheduling on nprocs
// identical processors exactly like ListScheduleReleases, but writes the
// result into dst and draws every temporary from the Scheduler's reusable
// scratch. dst's slices are reused when large enough, so a caller that keeps
// both the Scheduler and the Schedule alive across calls schedules with zero
// allocations per call.
//
// dst must not be nil; its previous contents are fully overwritten. The
// produced schedule — placement, times, makespan and per-processor task
// lists — is byte-identical to the one ListScheduleReleases returns for the
// same inputs.
func (k *Scheduler) ScheduleInto(dst *Schedule, g *dag.Graph, nprocs int, prio, release []int64) error {
	return k.schedule(dst, g, nil, nprocs, prio, release)
}

// ScheduleIntoPlatform is ScheduleInto on a platform: the first nprocs
// processors of pf are used, times are expressed in cycles of the
// platform's reference class, and a task of w cycles dispatched onto a
// processor of class c occupies pf.ScaledWeight(c, w) timeline cycles. Task
// selection is unchanged — the minimum-priority ready task dispatches first
// — but processor selection becomes class-aware: among the classes with an
// idle processor, the chosen task goes to the one on which it *finishes
// earliest* (ties: the lowest idle processor index across classes), so fast
// cores attract work without starving the index order determinism.
//
// On a single-class platform every scale is 1 and the earliest-finish rule
// degenerates to "lowest idle processor index", so the produced schedule is
// byte-identical to ScheduleInto with the same arguments (pinned by
// TestScheduleIntoPlatformHomogeneousParity).
func (k *Scheduler) ScheduleIntoPlatform(dst *Schedule, g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) error {
	if pf == nil {
		return errNilPlatform
	}
	return k.schedule(dst, g, pf, nprocs, prio, release)
}

// classOf is pf.ClassOf(p), with a nil platform standing for one class of
// identical processors.
func classOf(pf *power.Platform, p int) int {
	if pf == nil {
		return 0
	}
	return pf.ClassOf(p)
}

// checkArgs validates the arguments of schedule. It is a function of its own
// so the error formatting stays out of the event loop's stack frame: the
// engine schedules on freshly started goroutines, where a larger frame
// costs a stack copy per call.
func checkArgs(g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) error {
	if nprocs <= 0 {
		return ErrNoProcs
	}
	if pf != nil && nprocs > pf.NumProcs() {
		return fmt.Errorf("%w: %d processors requested of a %d-processor platform",
			ErrBadPlatform, nprocs, pf.NumProcs())
	}
	n := g.NumTasks()
	if len(prio) != n {
		return fmt.Errorf("%w: got %d priorities for %d tasks", ErrBadPriorities, len(prio), n)
	}
	if release != nil && len(release) != n {
		return fmt.Errorf("%w: got %d releases for %d tasks", ErrBadReleases, len(release), n)
	}
	return nil
}

// schedule is the one list-scheduling event loop behind ScheduleInto and
// ScheduleIntoPlatform. A nil pf is the identical-processor machine: one
// class at scale 1, so every dispatch takes the lowest idle processor and
// occupies exactly the task's weight.
func (k *Scheduler) schedule(dst *Schedule, g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) error {
	if err := checkArgs(g, pf, nprocs, prio, release); err != nil {
		return err
	}
	n := g.NumTasks()
	dst.Graph = g
	dst.NumProcs = nprocs
	dst.Makespan = 0
	dst.Proc = grow(dst.Proc, n)
	dst.Start = grow(dst.Start, n)
	dst.Finish = grow(dst.Finish, n)

	k.indeg = grow(k.indeg, n)
	k.ready = grow(k.ready, 0)
	k.pending = grow(k.pending, 0)
	k.running = grow(k.running, 0)
	k.order = grow(k.order, 0)
	for v := 0; v < n; v++ {
		k.indeg[v] = int32(g.InDegree(v))
		if k.indeg[v] == 0 {
			if release != nil && release[v] > 0 {
				k.pending = append(k.pending, finishEvent{release[v], int32(v)})
			} else {
				k.ready = append(k.ready, readyItem{int32(v), prio[v]})
			}
		}
	}
	heapInit(k.ready)
	heapInit(k.pending)

	// Per-class idle heaps: every heap keeps its backing array across
	// calls. Appending in increasing index order leaves each heap sorted,
	// which is already a valid min-heap.
	nc := 1
	if pf != nil {
		nc = pf.NumClasses()
	}
	if cap(k.more) < nc-1 {
		k.more = make([][]procID, nc-1)
	}
	k.more = k.more[:nc-1]
	for c := 0; c < nc; c++ {
		h := k.idleOf(c)
		*h = grow(*h, nprocs)[:0]
	}
	for p := 0; p < nprocs; p++ {
		h := k.idleOf(classOf(pf, p))
		*h = append(*h, procID(p))
	}
	idleCount := nprocs

	var t int64
	for {
		// Admit every pending task whose release has passed.
		for len(k.pending) > 0 && k.pending[0].finish <= t {
			ev := heapPop(&k.pending)
			heapPush(&k.ready, readyItem{ev.task, prio[ev.task]})
		}
		// Dispatch every ready task for which an idle processor exists.
		for len(k.ready) > 0 && idleCount > 0 {
			it := heapPop(&k.ready)
			v := int(it.task)
			c, d := k.earliestFinishClass(pf, g.Weight(v))
			p := heapPop(k.idleOf(c))
			idleCount--
			finish := t + d
			dst.Proc[v] = int32(p)
			dst.Start[v] = t
			dst.Finish[v] = finish
			if finish > dst.Makespan {
				dst.Makespan = finish
			}
			k.order = append(k.order, it.task)
			heapPush(&k.running, finishEvent{finish, it.task})
		}
		if len(k.running) == 0 && len(k.pending) == 0 {
			break // nothing running, nothing future: done
		}
		// Advance to the next event: a completion or a release.
		next := int64(math.MaxInt64)
		if len(k.running) > 0 {
			next = k.running[0].finish
		}
		if len(k.pending) > 0 && k.pending[0].finish < next {
			next = k.pending[0].finish
		}
		t = next
		for len(k.running) > 0 && k.running[0].finish == t {
			ev := heapPop(&k.running)
			p := int(dst.Proc[ev.task])
			heapPush(k.idleOf(classOf(pf, p)), procID(p))
			idleCount++
			for _, succ := range g.Succs(int(ev.task)) {
				k.indeg[succ]--
				if k.indeg[succ] == 0 {
					if release != nil && release[succ] > t {
						heapPush(&k.pending, finishEvent{release[succ], succ})
					} else {
						heapPush(&k.ready, readyItem{succ, prio[succ]})
					}
				}
			}
		}
	}
	k.buildByProc(dst)
	return nil
}

// earliestFinishClass picks the class a w-cycle task dispatches onto and
// its slot length: among the classes with an idle processor, the one whose
// scaled duration finishes first, ties to the lowest candidate processor
// index. On the identical-processor machine (nil pf) that is class 0 and
// the task's own weight.
func (k *Scheduler) earliestFinishClass(pf *power.Platform, w int64) (int, int64) {
	if pf == nil {
		return 0, w
	}
	best := -1
	var bestDur int64
	var bestProc procID
	for c := 0; c < pf.NumClasses(); c++ {
		h := *k.idleOf(c)
		if len(h) == 0 {
			continue
		}
		d := pf.ScaledWeight(c, w)
		if best < 0 || d < bestDur || (d == bestDur && h[0] < bestProc) {
			best, bestDur, bestProc = c, d, h[0]
		}
	}
	return best, bestDur
}

// buildByProc fills dst's flat per-processor task lists by a stable counting
// sort of the dispatch order over the processor index. Within one processor
// start times strictly increase along the dispatch order (a processor runs
// one task at a time and weights are positive), so the stable scatter yields
// the lists sorted by start time without any comparison sort.
func (k *Scheduler) buildByProc(dst *Schedule) {
	nprocs := dst.NumProcs
	dst.byProcOff = grow(dst.byProcOff, nprocs+1)
	for p := 0; p <= nprocs; p++ {
		dst.byProcOff[p] = 0
	}
	for _, v := range k.order {
		dst.byProcOff[dst.Proc[v]+1]++
	}
	for p := 0; p < nprocs; p++ {
		dst.byProcOff[p+1] += dst.byProcOff[p]
	}
	k.cursor = grow(k.cursor, nprocs)
	copy(k.cursor, dst.byProcOff[:nprocs])
	dst.byProcFlat = grow(dst.byProcFlat, len(k.order))
	for _, v := range k.order {
		p := dst.Proc[v]
		dst.byProcFlat[k.cursor[p]] = v
		k.cursor[p]++
	}
}
