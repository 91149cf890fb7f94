package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets lampsd up; setup_s is the
// median. The last set-up server is the one the run measures.
const setupRounds = 3

// oracleSamples is how many timed responses the oracle re-derives in
// process: the first ones of the window. hit_large instead checks every
// body that filled the cache, which every timed hit must equal.
func oracleSamples(k kind) int64 {
	if k == kindSweep {
		return 2
	}
	return 8
}

// sweepOracleStep checks every step-th cell of a sampled sweep.
const sweepOracleStep = 16

// metric is one reported number. n is its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int64
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	lampsd   string // server binary
	outDir   string // lampsd logs and span files
}

// result is the outcome of one workload run: the end-to-end metrics, and
// the per-layer ones (complete only with tracing on).
type result struct {
	metrics   []metric
	layers    []metric
	notes     []string
	correct   bool
	attempted int64
	failed    int64
}

func (res *result) add(name string, v float64, unit string, n int64, note string) {
	res.metrics = append(res.metrics, metric{name, v, unit, n})
	if note != "" {
		res.notes = append(res.notes, name+": "+note)
	}
}

func (res *result) failf(format string, args ...any) {
	res.correct = false
	res.notes = append(res.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

// warm brings a fresh lampsd to the state the timed window measures.
// hit_large fills the cache with every graph once, then reads each back as
// a hit; the miss workloads send unique requests until the LRU is full and
// evicting, so neither the heap nor the cache grows inside the window. On
// hit_large it returns, per graph, the body that filled the cache.
func warm(ctx context.Context, cs []*client, w *workload, next *atomic.Int64, res *result) ([][]byte, error) {
	expected := make([][]byte, len(w.graphs))
	far := time.Now().Add(time.Minute)
	phase := func(count int64, handle func(c *client, r int64, ex exchange) error) error {
		limit := next.Load() + count
		t := loop(ctx, cs, w, next, far, limit, false, handle)
		next.Store(limit)
		res.attempted += t.attempted
		res.failed += t.failed
		if t.failed > 0 {
			return fmt.Errorf("warm phase: %d of %d requests failed, first: %s", t.failed, t.attempted, t.firstErr)
		}
		return nil
	}
	check := func(c *client, r int64, ex exchange) error {
		return w.check(ex.status, ex.source, c.buf.Bytes(), expectedFor(w, expected, r))
	}
	switch w.kind {
	case kindHit:
		var mu sync.Mutex
		err := phase(int64(len(w.graphs)), func(c *client, r int64, ex exchange) error {
			if ex.status != 200 || ex.source != "miss" {
				return fmt.Errorf("priming request: status %d, cache %q", ex.status, ex.source)
			}
			mu.Lock()
			expected[w.graphOf(r)] = append([]byte(nil), c.buf.Bytes()...)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		return expected, phase(int64(len(w.graphs)), check)
	case kindMiss:
		return expected, phase(cacheEntries+int64(2*len(w.graphs)), check)
	}
	return expected, phase(int64(2*cacheEntries/w.cells+2*len(cs)), check)
}

// runWorkload runs one workload end to end.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	nclients := w.clients()
	res := &result{correct: true}
	var next atomic.Int64

	// Set up setupRounds times, keeping the last server.
	var (
		p        *lampsd
		cs       []*client
		expected [][]byte
		setups   []float64
	)
	stop := func() {
		for _, c := range cs {
			c.close()
		}
		if p != nil {
			p.stop()
		}
	}
	defer func() { stop() }()
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			stop()
		}
		logPath := filepath.Join(cfg.outDir, fmt.Sprintf("lampsd-%s-%d-%d.log", cfg.workload, cfg.seed, i))
		t0 := time.Now()
		p, err = startLampsd(ctx, cfg.lampsd, logPath)
		if err != nil {
			return nil, err
		}
		cs = cs[:0]
		for j := 0; j < nclients; j++ {
			cs = append(cs, newClient(p.base))
		}
		next.Store(0)
		if expected, err = warm(ctx, cs, w, &next, res); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The timed window. A sampler reads lampsd's CPU time at every slice
	// boundary; throughput and CPU per result are medians over the slices,
	// so a burst from another tenant of the host moves a few slices, not
	// the reported value.
	m0, err := p.scrape()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	firstTimed := next.Load()
	start := time.Now()
	until := start.Add(time.Duration(cfg.seconds) * time.Second)
	sampled := make(chan []sample, 1)
	go func() { sampled <- sampleWindow(ctx, p, start, until) }()
	var smu sync.Mutex
	samples := map[int64][]byte{}
	t := loop(ctx, cs, w, &next, until, 0, false, func(c *client, r int64, ex exchange) error {
		if err := w.check(ex.status, ex.source, c.buf.Bytes(), expectedFor(w, expected, r)); err != nil {
			return err
		}
		if w.kind != kindHit && r < firstTimed+oracleSamples(w.kind) {
			smu.Lock()
			samples[r] = append([]byte(nil), c.buf.Bytes()...)
			smu.Unlock()
		}
		return nil
	})
	marks := <-sampled
	selfUsed := selfCPU() - self0
	m1, err := p.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.attempted += t.attempted
	res.failed += t.failed
	if t.failed > 0 {
		res.failf("%d of %d timed requests failed, first: %s", t.failed, t.attempted, t.firstErr)
	}
	all := cutSlices(t.done, w.cells, marks)
	kept := quietHalf(all)
	if len(kept) == 0 {
		return nil, fmt.Errorf("timed window completed no request (first error: %s)", t.firstErr)
	}
	var rates, cpuPer []float64
	for _, sl := range kept {
		rates = append(rates, sl.results/sl.to.Sub(sl.from).Seconds())
		cpuPer = append(cpuPer, sl.cpu*1000/sl.results)
	}
	lat := keptLatencies(t.done, kept)
	whole := total(all)

	res.add("setup_s", median(setups), "s", int64(len(setups)),
		fmt.Sprintf("median of %d set-ups (spawn, ready, warm): %s", len(setups), fmtList(setups, "%.3f")))
	res.add("results_per_s", median(rates), "1/s", int64(len(rates)),
		fmt.Sprintf("median over the %d quieter of %d slices of %v (%d results per request); whole window %.4g/s; host steal %.1f%% in kept slices, %.1f%% overall",
			len(kept), len(all), cpuSlice, w.cells, whole.results/whole.to.Sub(whole.from).Seconds(), total(kept).steal*100, whole.steal*100))
	res.add("latency_p50_ms", percentile(lat, 0.50), "ms", int64(len(lat)), "requests ending in kept slices")
	res.add("latency_p90_ms", percentile(lat, 0.90), "ms", int64(len(lat)),
		fmt.Sprintf("%.0f samples beyond it; not gated: p95 %.3f, p99 %.3f (%.0f beyond), max %.3f ms",
			float64(len(lat))*0.1, percentile(lat, 0.95), percentile(lat, 0.99), float64(len(lat))*0.01, lat[len(lat)-1]))
	res.add("cpu_ms_per_result", median(cpuPer), "ms", int64(len(cpuPer)),
		fmt.Sprintf("median over kept slices; whole window %.4g ms (lampsd utime+stime %.2f s)", whole.cpu*1000/whole.results, whole.cpu))
	res.add("rss_peak_mb", rss, "MiB", 1, "lampsd VmHWM")

	// Workload validity from /metrics deltas.
	hits := delta(m0, m1, "lampsd_cache_hits_total")
	misses := delta(m0, m1, "lampsd_cache_misses_total")
	evictions := delta(m0, m1, "lampsd_cache_evictions_total")
	hitRatio := ratio(hits, hits+misses)
	coalesced := delta(m0, m1, "lampsd_coalesced_total")
	sheds := delta(m0, m1, "lampsd_admission_shed_total")
	for _, bad := range []string{"lampsd_runs_cancelled_total", "lampsd_panics_total", "lampsd_verify_failures_total"} {
		if d := delta(m0, m1, bad); d != 0 {
			res.failf("%s rose by %v in the window", bad, d)
		}
	}
	switch {
	case w.kind == kindHit && hitRatio != 1:
		res.failf("cache hit ratio %v on %s, want 1", hitRatio, w.name)
	case w.kind != kindHit && hits != 0:
		res.failf("cache hit ratio %v on %s, want 0", hitRatio, w.name)
	}
	if coalesced != 0 || sheds != 0 {
		res.failf("%v coalesced and %v shed requests in the window, want none", coalesced, sheds)
	}
	if w.kind != kindHit && (m0.sum("lampsd_cache_entries") != cacheEntries || evictions == 0) {
		res.failf("LRU not at steady state: %v entries of %d at window start, %v evictions in the window",
			m0.sum("lampsd_cache_entries"), cacheEntries, evictions)
	}

	// Per-layer numbers from /metrics. Windows without engine runs or
	// admissions (every hit_large window) fall back to the server's
	// lifetime, which on hit_large is the warm phase that filled the cache.
	perEvent := func(name string, scale float64) (float64, string) {
		if c := delta(m0, m1, name+"_count"); c > 0 {
			return delta(m0, m1, name+"_sum") / c * scale, ""
		}
		return ratio(m1.sum(name+"_sum"), m1.sum(name+"_count")) * scale, "no events in the window; server lifetime (warm phase) instead"
	}
	layers := &result{}
	layers.add("cache.hit_ratio", hitRatio, "ratio", int64(hits+misses), "")
	layers.add("cache.evictions_per_result", evictions/float64(t.results), "count", t.results, "")
	qw, qwNote := perEvent("lampsd_queue_wait_seconds", 1000)
	layers.add("admission.queue_wait_ms", qw, "ms", int64(delta(m0, m1, "lampsd_queue_wait_seconds_count")), qwNote)
	layers.add("admission.sheds", sheds, "count", t.attempted, "")
	layers.add("server.coalesced", coalesced, "count", t.attempted, "")
	run, runNote := perEvent("lampsd_schedule_seconds", 1000)
	layers.add("core.run_ms", run, "ms", int64(delta(m0, m1, "lampsd_schedule_seconds_count")), runNote)
	sb, sbNote := perEvent("lampsd_schedules_built", 1)
	layers.add("core.schedules_built_per_run", sb, "count", int64(delta(m0, m1, "lampsd_schedules_built_count")), sbNote)
	lv, lvNote := perEvent("lampsd_levels_evaluated", 1)
	layers.add("core.levels_evaluated_per_run", lv, "count", int64(delta(m0, m1, "lampsd_levels_evaluated_count")), lvNote)
	layers.add("http.request_bytes", float64(t.reqBytes)/float64(t.results), "B", t.results, "per result")
	layers.add("http.response_bytes", float64(t.respBytes)/float64(t.results), "B", t.results, "per result")
	layers.add("loadgen.cpu_frac", selfUsed/(t.elapsed.Seconds()*float64(runtime.NumCPU())), "ratio", 1,
		"generator CPU over wall time x cores: a validity check that the client stays off the critical path")

	res.notes = append(res.notes,
		fmt.Sprintf("provenance: nproc=%d gomaxprocs.generator=%d gomaxprocs.lampsd=%v go=%s seed=%d clients=%d closed-loop lampsd_flags=%q",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), m1.sum("lampsd_workers"), runtime.Version(), cfg.seed, nclients,
			strings.Join(lampsdFlags, " ")))

	if cfg.trace {
		spans := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		phase := time.Duration(min(max(cfg.seconds/3, 1), 4)) * time.Second
		lr, err := tracedRun(ctx, cs, w, &next, expected, phase, percentile(lat, 0.5), spans)
		if err != nil {
			return nil, err
		}
		layers.metrics = append(layers.metrics, lr.metrics...)
		layers.notes = append(layers.notes, lr.notes...)
		res.attempted += lr.attempted
		res.failed += lr.failed
		res.correct = res.correct && lr.correct
	}
	stop()
	p, cs = nil, nil

	// Oracle on a fixed sample, outside the timed window.
	o := newOracle(w)
	check := func(err error) {
		res.attempted++
		if err != nil {
			res.failed++
			res.failf("oracle: %v", err)
		}
	}
	switch w.kind {
	case kindHit:
		for i, b := range expected {
			check(o.checkSchedule(int64(i), b))
		}
	case kindMiss:
		for r := firstTimed; r < firstTimed+oracleSamples(w.kind); r++ {
			check(sampleOr(samples, r, o.checkSchedule))
		}
	case kindSweep:
		for r := firstTimed; r < firstTimed+oracleSamples(w.kind); r++ {
			check(sampleOr(samples, r, func(r int64, b []byte) error { return o.checkSweep(r, b, sweepOracleStep) }))
		}
	}

	res.layers, res.notes = layers.metrics, append(res.notes, layers.notes...)
	return res, nil
}

// sampleOr runs check on the sampled response to request r, or reports
// that the window never completed it.
func sampleOr(samples map[int64][]byte, r int64, check func(int64, []byte) error) error {
	b, ok := samples[r]
	if !ok {
		return fmt.Errorf("request %d was not answered in the window, so it cannot be checked", r)
	}
	return check(r, b)
}

// selfCPU returns this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func fmtList(vs []float64, format string) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(s, " ")
}
