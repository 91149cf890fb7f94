package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeEachWorkload runs every workload for one second with tracing
// on against a freshly built lampsd: the checks must pass, no op may
// fail, and every metric must be reported.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives lampsd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lampsd")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	if out, err := exec.Command("go", append(args, "lamps/cmd/lampsd")...).CombinedOutput(); err != nil {
		t.Fatalf("building lampsd: %v\n%s", err, out)
	}
	e2e := []string{"setup_s", "results_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_result", "rss_peak_mb"}
	layers := []string{"cache.hit_ratio", "admission.queue_wait_ms", "core.run_ms", "dag.build_ms", "graphhash.sum_ms",
		"core.phase.build_ms", "sched.us_per_schedule", "energy.us_per_level", "server.handler_ms",
		"server.residual_ms", "http.transport_ms", "trace.overhead_frac", "loadgen.cpu_frac"}
	for _, d := range workloads {
		t.Run(d.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := runWorkload(ctx, runConfig{workload: d.name, seed: 3, seconds: 1, trace: true,
				lampsd: bin, outDir: filepath.Join(dir, d.name)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.correct, res.failed, res.attempted, res.notes)
			}
			got := map[string]float64{}
			for _, m := range append(res.metrics, res.layers...) {
				got[m.name] = m.value
			}
			for _, name := range append(e2e, layers...) {
				if _, ok := got[name]; !ok {
					t.Errorf("metric %s missing", name)
				}
			}
			for _, name := range e2e {
				if got[name] <= 0 {
					t.Errorf("%s = %v, want positive", name, got[name])
				}
			}
			wantHits := 0.0
			if d.kind == kindHit {
				wantHits = 1
			}
			if got["cache.hit_ratio"] != wantHits {
				t.Errorf("cache.hit_ratio = %v, want %v", got["cache.hit_ratio"], wantHits)
			}
		})
	}
}
