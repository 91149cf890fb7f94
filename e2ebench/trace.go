package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/server"
	"lamps/internal/workpool"
)

// addUpTolerance bounds how far the independently timed layers may
// overshoot the whole they belong to, as a share of the client latency:
// build+digest+engine may exceed the in-process handler time, and the
// handler time may exceed the client latency, by at most this much. A
// larger overshoot means a layer is double counted or mis-timed.
const addUpTolerance = 0.10

// span is one timed interval of the traced run. Spans of one request share
// Request; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace epoch
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span ID, for a span whose children are recorded before
// it ends.
func (r *recorder) newID() int64 { return r.ids.Add(1) }

// put records the span with a reserved ID.
func (r *recorder) put(id, req, parent int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Request: req, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add records one span and returns its ID.
func (r *recorder) add(req, parent int64, name string, start, end time.Time) int64 {
	id := r.newID()
	r.put(id, req, parent, name, start, end)
	return id
}

// total returns the summed duration of the spans named name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// http records a traced exchange as a "client.request" span with its send,
// server-wait and read children.
func (r *recorder) http(req, parent int64, ex exchange) {
	end := ex.start.Add(ex.latency)
	id := r.add(req, parent, "client.request", ex.start, end)
	r.add(req, id, "http.send", ex.start, ex.wrote)
	r.add(req, id, "http.wait", ex.wrote, ex.firstByte)
	r.add(req, id, "http.read", ex.firstByte, end)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// enginePhases are the core.Engine phases the per-layer report breaks out.
var enginePhases = []string{core.PhaseMinProcs, core.PhaseSaturation, core.PhaseBuild, core.PhaseEvaluate}

// phaseSpans is an Observer that turns one engine run's OnPhase marks into
// child spans of the run and counts the schedules and levels each phase
// produced. The engine serialises Observer calls, so it needs no lock.
type phaseSpans struct {
	rec       *recorder
	req, run  int64 // run is the ID of the enclosing "core.run" span
	cur       string
	curStart  time.Time
	schedules map[string]int
	levels    map[string]int
}

func (p *phaseSpans) OnPhase(name string) {
	now := time.Now()
	p.close(now)
	p.cur, p.curStart = name, now
}

func (p *phaseSpans) OnScheduleBuilt(int, int64)                     { p.schedules[p.cur]++ }
func (p *phaseSpans) OnLevelEvaluated(power.Level, energy.Breakdown) { p.levels[p.cur]++ }

// close ends the current phase at t.
func (p *phaseSpans) close(t time.Time) {
	if p.cur != "" {
		p.rec.add(p.req, p.run, "core.phase."+p.cur, p.curStart, t)
	}
	p.cur = ""
}

// captureWriter is an in-memory http.ResponseWriter for the in-process
// handler replay.
type captureWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (c *captureWriter) Header() http.Header { return c.hdr }
func (c *captureWriter) WriteHeader(s int) {
	if c.status == 0 {
		c.status = s
	}
}
func (c *captureWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.body.Write(b)
}
func (c *captureWriter) Flush() {}

// replayer replays requests in process: through a server configured like
// lampsd, then layer by layer through the layers' public functions.
type replayer struct {
	w        *workload
	expected [][]byte
	rec      *recorder
	handler  http.Handler
	search   *workpool.Pool // shared by all engine runs, as in lampsd
	model    *power.Model
	graphs   []*dag.Graph

	mu        sync.Mutex // guards the counts below
	runs      int
	schedules map[string]int
	levels    map[string]int
}

func newReplayer(w *workload, expected [][]byte, rec *recorder) (*replayer, error) {
	rp := &replayer{
		w: w, expected: expected, rec: rec,
		handler: server.New(server.Options{
			CacheSize: cacheEntries,
			Logger:    slog.New(slog.NewJSONHandler(io.Discard, nil)),
		}).Handler(),
		search:    workpool.NewPool(0),
		model:     power.Default70nm(),
		schedules: map[string]int{},
		levels:    map[string]int{},
	}
	for i := range w.graphs {
		g, err := w.graphs[i].build()
		if err != nil {
			return nil, err
		}
		rp.graphs = append(rp.graphs, g)
	}
	// Prime the in-process cache exactly as the warm phase primed lampsd's.
	if w.kind == kindHit {
		var cw captureWriter
		for i := range w.graphs {
			rp.serve(&cw, w.body(int64(i)))
		}
	}
	return rp, nil
}

func (rp *replayer) serve(cw *captureWriter, body []byte) {
	cw.hdr, cw.status = http.Header{}, 0
	cw.body.Reset()
	req := httptest.NewRequest(http.MethodPost, rp.w.path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rp.handler.ServeHTTP(cw, req)
}

// replay times request r under root: the whole handler, then dag.Builder,
// the digest and the engine run(s) on the same problem.
func (rp *replayer) replay(ctx context.Context, cw *captureWriter, r, root int64) error {
	w, rec := rp.w, rp.rec
	body := w.body(r)
	t0 := time.Now()
	rp.serve(cw, body)
	rec.add(r, root, "server.handler", t0, time.Now())
	if err := w.check(cw.status, cw.hdr.Get(server.CacheHeader), cw.body.Bytes(), expectedFor(w, rp.expected, r)); err != nil {
		return fmt.Errorf("in-process handler: %w", err)
	}

	spec, g := &w.graphs[w.graphOf(r)], rp.graphs[w.graphOf(r)]
	t0 = time.Now()
	if _, err := spec.build(); err != nil {
		return err
	}
	rec.add(r, root, "dag.build", t0, time.Now())

	factors, err := parseFactors(string(w.appendMid(nil, r)))
	if err != nil {
		return err
	}
	deadline := func(f float64) float64 { return f * float64(g.CriticalPathLength()) / rp.model.FMax() }
	if w.kind != kindSweep {
		d := deadline(factors[0])
		t0 = time.Now()
		graphhash.Sum(graphhash.Problem{Graph: g, Model: rp.model, Deadline: d, Approach: scheduleApproach})
		rec.add(r, root, "graphhash.sum", t0, time.Now())
		return rp.engine(ctx, r, root, scheduleApproach, g, core.Config{Model: rp.model, Deadline: d})
	}

	var cfgs []core.Config
	var approaches []string
	for _, a := range sweepApproaches {
		for _, f := range factors {
			for _, p := range sweepProcs {
				approaches = append(approaches, a)
				cfgs = append(cfgs, core.Config{Model: rp.model, Deadline: deadline(f), MaxProcs: p})
			}
		}
	}
	t0 = time.Now()
	hr := graphhash.NewProblemHasher(graphhash.Problem{Graph: g, Model: rp.model})
	for i, cfg := range cfgs {
		hr.Cell(cfg.Deadline, cfg.MaxProcs, approaches[i])
	}
	rec.add(r, root, "graphhash.sum", t0, time.Now())

	fan := rec.newID()
	t0 = time.Now()
	err = workpool.MapCtx(ctx, len(cfgs), runtime.GOMAXPROCS(0), func(i int) error {
		return rp.engine(ctx, r, fan, approaches[i], g, cfgs[i])
	})
	rec.put(fan, r, root, "core.fanout", t0, time.Now())
	return err
}

// engine runs one traced engine call: a "core.run" span under parent with
// one child span per phase.
func (rp *replayer) engine(ctx context.Context, r, parent int64, approach string, g *dag.Graph, cfg core.Config) error {
	obs := &phaseSpans{rec: rp.rec, req: r, run: rp.rec.newID(), schedules: map[string]int{}, levels: map[string]int{}}
	eng := core.Engine{Config: cfg, Observer: obs, Pool: rp.search}
	start := time.Now()
	_, err := eng.Run(ctx, approach, g)
	end := time.Now()
	obs.close(end)
	rp.rec.put(obs.run, r, parent, "core.run", start, end)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.runs++
	for k, v := range obs.schedules {
		rp.schedules[k] += v
	}
	for k, v := range obs.levels {
		rp.levels[k] += v
	}
	return err
}

// tracedRun measures the per-layer breakdown of w's requests in two phases
// of the given length, after the timed window and against the same lampsd.
//
// Phase A repeats the timed loop with net/http/httptrace hooks; its median
// latency against the untraced window's is the tracing overhead. In phase B
// every caller sends each request to lampsd, then replays the same body in
// process: through a server configured like lampsd (the handler time), then
// through dag.Builder, graphhash and core.Engine.Run with a phase Observer.
// Timing the client latency and its layers back to back on one caller keeps
// them under the same host conditions, so they can be checked to add up.
// Neither phase changes lampsd: every span comes from the benchmark's own
// calls into the layers.
func tracedRun(ctx context.Context, cs []*client, w *workload, next *atomic.Int64, expected [][]byte,
	phase time.Duration, untracedP50Ms float64, spansPath string) (*result, error) {
	rep := &result{correct: true}
	rec := newRecorder()
	count := func(t *tally, what string) {
		rep.attempted += t.attempted
		rep.failed += t.failed
		if t.failed > 0 {
			rep.failf("%d of %d %s failed, first: %s", t.failed, t.attempted, what, t.firstErr)
		}
	}

	ta := loop(ctx, cs, w, next, time.Now().Add(phase), 0, true, func(c *client, r int64, ex exchange) error {
		if err := w.check(ex.status, ex.source, c.buf.Bytes(), expectedFor(w, expected, r)); err != nil {
			return err
		}
		rec.http(r, 0, ex)
		return nil
	})
	count(ta, "traced requests")

	rp, err := newReplayer(w, expected, rec)
	if err != nil {
		return nil, err
	}
	writers := map[*client]*captureWriter{}
	for _, c := range cs {
		writers[c] = &captureWriter{}
	}
	tb := loop(ctx, cs, w, next, time.Now().Add(phase), 0, true, func(c *client, r int64, ex exchange) error {
		if err := w.check(ex.status, ex.source, c.buf.Bytes(), expectedFor(w, expected, r)); err != nil {
			return err
		}
		root := rec.newID()
		rec.http(r, root, ex)
		err := rp.replay(ctx, writers[c], r, root)
		rec.put(root, r, 0, "request", ex.start, time.Now())
		return err
	})
	count(tb, "replayed requests")
	n := float64(len(tb.done))
	if n == 0 || len(ta.done) == 0 {
		return nil, fmt.Errorf("traced run completed no request (first errors: %q, %q)", ta.firstErr, tb.firstErr)
	}

	per := func(name string) float64 { return ms(rec.total(name)) / n }
	perRun := func(name string) float64 { return ms(rec.total(name)) / float64(max(rp.runs, 1)) }
	clientMs := mean(latencies(tb.done))
	handlerMs, buildMs, sumMs := per("server.handler"), per("dag.build"), per("graphhash.sum")
	var engineMs float64 // engine time on the request path
	switch w.kind {
	case kindMiss:
		engineMs = per("core.run")
	case kindSweep:
		engineMs = per("core.fanout")
	}
	residualMs := handlerMs - buildMs - sumMs - engineMs
	transportMs := clientMs - handlerMs
	tracedP50 := percentile(latencies(ta.done), 0.5)

	nb, runs := int64(n), int64(rp.runs)
	rep.add("dag.build_ms", buildMs, "ms", nb, "")
	rep.add("graphhash.sum_ms", sumMs, "ms", nb, "")
	for _, ph := range enginePhases {
		rep.add("core.phase."+ph+"_ms", perRun("core.phase."+ph), "ms", runs, "")
	}
	built, evaluated := rp.schedules[core.PhaseBuild], rp.levels[core.PhaseEvaluate]
	rep.add("sched.us_per_schedule", us(rec.total("core.phase."+core.PhaseBuild))/float64(max(built, 1)), "us", int64(built),
		"build-phase wall time over the schedules it built")
	rep.add("energy.us_per_level", us(rec.total("core.phase."+core.PhaseEvaluate))/float64(max(evaluated, 1)), "us", int64(evaluated),
		"evaluate-phase wall time over the levels it evaluated")
	rep.add("server.handler_ms", handlerMs, "ms", nb, "")
	rep.add("server.residual_ms", residualMs, "ms", nb, "handler time left after build, digest and engine: decode, validate, cache, admission, render, write")
	rep.add("http.transport_ms", transportMs, "ms", nb, "client latency minus handler time")
	rep.add("trace.overhead_frac", tracedP50/untracedP50Ms-1, "ratio", int64(len(ta.done)),
		fmt.Sprintf("traced p50 %.3f ms against untraced p50 %.3f ms, measured one after the other, so host drift shows in it too", tracedP50, untracedP50Ms))
	if w.kind == kindHit {
		rep.notes = append(rep.notes, "engine layers on hit_large time the engine on the same problems; the cache answers every request, so they are not on its path and the layer sum leaves them out")
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("layer sum (means per request): client %.3f ms = transport %.3f + handler %.3f; handler = build %.3f + digest %.3f + engine %.3f + residual %.3f",
			clientMs, transportMs, handlerMs, buildMs, sumMs, engineMs, residualMs),
		fmt.Sprintf("add-up tolerance: build+digest+engine may exceed the handler, and the handler the client latency, by at most %.0f%% of client latency", addUpTolerance*100))
	if over := -min(residualMs, transportMs); over > addUpTolerance*clientMs {
		rep.failf("layers overshoot by %.3f ms, more than the tolerance %.3f ms", over, addUpTolerance*clientMs)
	}
	if err := rec.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(rec.spans), spansPath))
	return rep, nil
}

// latencies returns the client latencies of done in milliseconds, sorted.
func latencies(done []reqSpan) []float64 {
	out := make([]float64, len(done))
	for i, r := range done {
		out[i] = ms(r.latency())
	}
	sort.Float64s(out)
	return out
}

// parseFactors parses a request's deadline part: one factor, or a
// comma-separated list for sweeps.
func parseFactors(mid string) ([]float64, error) {
	var fs []float64
	if err := json.Unmarshal([]byte("["+mid+"]"), &fs); err != nil {
		return nil, fmt.Errorf("parsing deadline factors %q: %w", mid, err)
	}
	return fs, nil
}

// expectedFor returns the body a hit for request r must equal.
func expectedFor(w *workload, expected [][]byte, r int64) []byte {
	if w.kind != kindHit {
		return nil
	}
	return expected[w.graphOf(r)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
