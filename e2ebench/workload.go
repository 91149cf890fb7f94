package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/taskgen"
)

// kind is the request pattern of a workload.
type kind int

const (
	kindHit   kind = iota // the same bodies over and over: cache hits
	kindMiss              // one body per request: every request misses
	kindSweep             // one /v1/sweep grid per request, every cell misses
)

// workload is one traffic mix. Its inputs depend only on the seed.
type workload struct {
	name  string
	kind  kind
	path  string // endpoint
	cells int    // results per request

	graphs []graphSpec
	prefix [][]byte // per graph: the body up to the varying deadline part
	suffix []byte   // the body after it
}

// Workload parameters. Shapes are fixed so that only weights and edge
// endpoints vary with the seed: a random layer count gave 1000-task graphs
// between 8.8k and 64k edges, and a few heavy draws then set the tail.
var (
	largeShape = shape{layers: 40, width: 25, outDeg: 15, span: 2} // 1000 tasks, 14625 edges
	sweepShape = shape{layers: 16, width: 10, outDeg: 4, span: 2}  // 160 tasks, 600 edges

	sweepApproaches = []string{core.ApproachSS, core.ApproachLAMPS, core.ApproachSSPS, core.ApproachLAMPSPS}
	sweepFactors    = []string{"3.0", "3.5", "4.0", "4.5", "5.0", "5.5", "6.0", "6.5"}
	sweepProcs      = []int{0, 4, 8, 16}
)

// graphsPerWorkload is how many distinct graphs each workload cycles
// through: enough that a run's mean is not set by one seed's draw, and
// fewer than the cache holds, so hit_large keeps all of them cached.
const graphsPerWorkload = 16

// scheduleApproach is the approach of hit_large and miss_large. Bodies
// carry the engine's own approach names, which lampsd accepts as written.
const scheduleApproach = core.ApproachLAMPSPS

// hitFactor is hit_large's fixed deadline factor.
const hitFactor = "2.5"

var workloads = []struct {
	name, why string
	kind      kind
}{
	{"hit_large", "1000-task /v1/schedule bodies repeated, so every timed request is a cache hit and only the request front end runs", kindHit},
	{"miss_large", "1000-task /v1/schedule bodies with a unique deadline each, so every request misses: front end, admission, engine, render, cache insert and eviction", kindMiss},
	{"sweep_grid", "128-cell /v1/sweep grids on 160-task graphs with unique deadlines: one decode per request, engine runs fanned over the pool, per-cell render and streamed writes", kindSweep},
}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	for _, d := range workloads {
		if d.name != name {
			continue
		}
		w := &workload{name: d.name, kind: d.kind, path: "/v1/schedule", cells: 1}
		sh := largeShape
		if d.kind == kindSweep {
			w.path = "/v1/sweep"
			w.cells = len(sweepApproaches) * len(sweepFactors) * len(sweepProcs)
			sh = sweepShape
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < graphsPerWorkload; i++ {
			g := sh.generate(rng, fmt.Sprintf("%s-%d-%02d", name, seed, i))
			w.graphs = append(w.graphs, g)
			w.prefix = append(w.prefix, w.encodePrefix(g))
		}
		w.suffix = w.encodeSuffix()
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shape is a layered DAG of layers×width tasks in which every task outside
// the last layer has exactly outDeg distinct successors drawn from the next
// span layers.
type shape struct{ layers, width, outDeg, span int }

// graphSpec is one generated graph, in the form the oracle rebuilds it
// from.
type graphSpec struct {
	name    string
	weights []int64
	edges   [][2]int32
}

func (s shape) generate(rng *rand.Rand, name string) graphSpec {
	n := s.layers * s.width
	g := graphSpec{name: name, weights: make([]int64, n)}
	for i := range g.weights {
		g.weights[i] = int64(rng.Intn(taskgen.MaxWeight)+1) * taskgen.CoarseGrainCycles
	}
	cand := make([]int32, 0, s.span*s.width)
	for l := 0; l < s.layers-1; l++ {
		cand = cand[:0]
		for t := (l + 1) * s.width; t < (l+1+s.span)*s.width && t < n; t++ {
			cand = append(cand, int32(t))
		}
		for u := l * s.width; u < (l+1)*s.width; u++ {
			// Partial Fisher-Yates: the first outDeg candidates become a
			// uniform sample without replacement.
			for k := 0; k < s.outDeg; k++ {
				j := k + rng.Intn(len(cand)-k)
				cand[k], cand[j] = cand[j], cand[k]
				g.edges = append(g.edges, [2]int32{int32(u), cand[k]})
			}
		}
	}
	return g
}

// build materialises the graph through dag.Builder, as lampsd does.
func (g *graphSpec) build() (*dag.Graph, error) {
	b := dag.NewBuilder(g.name)
	for _, w := range g.weights {
		b.AddLabeledTask(w, "")
	}
	for _, e := range g.edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build()
}

// appendGraph appends the inline JSON form of g.
func appendGraph(b []byte, g *graphSpec) []byte {
	b = append(b, `"graph":{"name":`...)
	b = strconv.AppendQuote(b, g.name)
	b = append(b, `,"tasks":[`...)
	for i, w := range g.weights {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"weight_cycles":`...)
		b = strconv.AppendInt(b, w, 10)
		b = append(b, '}')
	}
	b = append(b, `],"edges":[`...)
	for i, e := range g.edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(e[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e[1]), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// encodePrefix encodes everything up to the deadline part of a body.
func (w *workload) encodePrefix(g graphSpec) []byte {
	if w.kind == kindSweep {
		b := []byte(`{"approaches":["`)
		for i, a := range sweepApproaches {
			if i > 0 {
				b = append(b, `","`...)
			}
			b = append(b, a...)
		}
		b = append(b, `"],"max_procs":[`...)
		for i, p := range sweepProcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, "],"...)
		b = appendGraph(b, &g)
		return append(b, `,"deadline_factors":[`...)
	}
	b := []byte(`{"approach":"` + scheduleApproach + `",`)
	b = appendGraph(b, &g)
	return append(b, `,"deadline_factor":`...)
}

func (w *workload) encodeSuffix() []byte {
	if w.kind == kindSweep {
		return []byte("]}")
	}
	return []byte("}")
}

// appendMid appends request r's deadline part. hit_large repeats one
// factor; the others append r as extra decimal digits, so every request's
// deadlines are new to the server while its work stays that of the base
// factor. Request numbers stay below 10^6 (a run sends far fewer).
func (w *workload) appendMid(b []byte, r int64) []byte {
	switch w.kind {
	case kindHit:
		return append(b, hitFactor...)
	case kindMiss:
		return fmt.Appendf(b, "2.%07d", r)
	}
	for i, f := range sweepFactors {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%s%06d", f, r)
	}
	return b
}

// clients is the number of closed-loop callers: one per CPU for the
// /v1/schedule workloads, where two callers were steadier than one. A sweep
// fans its cells over lampsd's whole worker pool, so one caller already
// keeps every CPU busy; a second concurrent sweep only interleaves two
// grids on the same pool, which on a 2-vCPU VM made throughput across ten
// seeds spread by 0.20 of its median, against 0.055 with one caller.
func (w *workload) clients() int {
	if w.kind == kindSweep {
		return 1
	}
	return runtime.NumCPU()
}

// graphOf returns the graph index request r uses.
func (w *workload) graphOf(r int64) int { return int(r % int64(len(w.graphs))) }

// body returns the full body of request r (outside the timed window; the
// clients splice the parts without copying).
func (w *workload) body(r int64) []byte {
	b := append([]byte(nil), w.prefix[w.graphOf(r)]...)
	b = w.appendMid(b, r)
	return append(b, w.suffix...)
}

// sweepSummary is the trailing line of a /v1/sweep stream.
type sweepSummary struct {
	Cells     int  `json:"cells"`
	Completed int  `json:"completed"`
	OK        int  `json:"ok"`
	Errors    int  `json:"errors"`
	CacheHits int  `json:"cache_hits"`
	Coalesced int  `json:"coalesced"`
	TimedOut  bool `json:"timed_out"`
}

// errNoSummary reports a sweep stream without its summary line.
var errNoSummary = errors.New("sweep stream has no summary line")

// checkSweep verifies a sweep stream from its last line only: every cell
// answered and none came from the cache or another request's run.
func (w *workload) checkSweep(body []byte) error {
	body = bytes.TrimRight(body, "\n")
	i := bytes.LastIndexByte(body, '\n')
	if i < 0 {
		return errNoSummary
	}
	var line struct {
		Summary *sweepSummary `json:"summary"`
	}
	if err := json.Unmarshal(body[i+1:], &line); err != nil || line.Summary == nil {
		return errNoSummary
	}
	s := line.Summary
	if s.Cells != w.cells || s.OK != s.Cells || s.TimedOut {
		return fmt.Errorf("sweep summary ok=%d of cells=%d (want %d), timed_out=%v", s.OK, s.Cells, w.cells, s.TimedOut)
	}
	if s.CacheHits != 0 || s.Coalesced != 0 {
		return fmt.Errorf("sweep summary has %d cache hits and %d coalesced cells, want none", s.CacheHits, s.Coalesced)
	}
	return nil
}

// check validates one timed response. want is the cached body a hit must
// equal (hit_large only).
func (w *workload) check(status int, source string, body, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	switch w.kind {
	case kindHit:
		if source != "hit" {
			return fmt.Errorf("cache header %q, want hit", source)
		}
		if !bytes.Equal(body, want) {
			return errors.New("hit body differs from the body that filled the cache")
		}
	case kindMiss:
		if source != "miss" {
			return fmt.Errorf("cache header %q, want miss", source)
		}
	case kindSweep:
		return w.checkSweep(body)
	}
	return nil
}
