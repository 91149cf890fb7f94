package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	vs := []float64{3, 1, 2}
	if got := median(vs); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if vs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}

func TestMetricDeltas(t *testing.T) {
	const before = `# HELP lampsd_cache_hits_total x
lampsd_cache_hits_total 10
lampsd_queue_wait_seconds_sum{class="heavy"} 0.5
lampsd_queue_wait_seconds_sum{class="micro"} 0.25
lampsd_queue_wait_seconds_count{class="heavy"} 4
lampsd_schedules_built_sum 100
lampsd_schedules_built_count 5
lampsd_schedules_built_total 7
`
	const after = `lampsd_cache_hits_total 30
lampsd_queue_wait_seconds_sum{class="heavy"} 1.5
lampsd_queue_wait_seconds_sum{class="micro"} 0.25
lampsd_queue_wait_seconds_count{class="heavy"} 8
lampsd_schedules_built_sum 160
lampsd_schedules_built_count 8
lampsd_schedules_built_total 9
`
	m0, err := parseMetrics(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := parseMetrics(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(m0, m1, "lampsd_cache_hits_total"); d != 20 {
		t.Errorf("hits delta = %v", d)
	}
	if d := delta(m0, m1, "lampsd_queue_wait_seconds_sum"); d != 1 {
		t.Errorf("labelled sum delta = %v", d)
	}
	// The histogram's _sum must not pick up the _total counter sharing its
	// name prefix.
	if d := delta(m0, m1, "lampsd_schedules_built_sum") / delta(m0, m1, "lampsd_schedules_built_count"); d != 20 {
		t.Errorf("schedules per run = %v", d)
	}
	if _, err := parseMetrics(strings.NewReader("novalue\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestGeneratedShapesAreFixed(t *testing.T) {
	for _, name := range []string{"hit_large", "sweep_grid"} {
		var edges []int
		for seed := int64(1); seed <= 3; seed++ {
			w, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.graphs {
				g, err := w.graphs[i].build()
				if err != nil {
					t.Fatalf("%s seed %d graph %d: %v", name, seed, i, err)
				}
				edges = append(edges, g.NumEdges())
			}
		}
		for _, e := range edges {
			if e != edges[0] {
				t.Fatalf("%s: edge counts vary across graphs and seeds: %v", name, edges)
			}
		}
	}
	w, _ := newWorkload("hit_large", 1)
	if g, _ := w.graphs[0].build(); g.NumTasks() != 1000 || g.NumEdges() != 14625 {
		t.Errorf("large graph has %d tasks and %d edges", g.NumTasks(), g.NumEdges())
	}
}

func TestBodiesDecodeAndDeadlinesAreUnique(t *testing.T) {
	for _, name := range []string{"hit_large", "miss_large", "sweep_grid"} {
		w, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		a, b := w.body(3), w.body(3+int64(len(w.graphs)))
		for _, body := range [][]byte{a, b} {
			var v map[string]any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("%s: body does not decode: %v", name, err)
			}
		}
		// Two requests on the same graph: equal bodies for hits, distinct
		// deadlines for everything else.
		same := string(a) == string(b)
		if same != (w.kind == kindHit) {
			t.Errorf("%s: bodies of requests on one graph equal = %v", name, same)
		}
		if f, err := parseFactors(string(w.appendMid(nil, 12345))); err != nil || len(f) == 0 {
			t.Errorf("%s: deadline part does not parse: %v", name, err)
		}
	}
	other, _ := newWorkload("miss_large", 8)
	w, _ := newWorkload("miss_large", 7)
	if string(other.body(0)) == string(w.body(0)) {
		t.Error("seeds 7 and 8 give the same body")
	}
}

func TestCheckSweepSummary(t *testing.T) {
	w, _ := newWorkload("sweep_grid", 1)
	good := `{"cell":{"index":0}}` + "\n" + `{"summary":{"cells":128,"completed":128,"ok":128}}` + "\n"
	if err := w.checkSweep([]byte(good)); err != nil {
		t.Errorf("good stream rejected: %v", err)
	}
	for _, bad := range []string{
		`{"cell":{}}` + "\n" + `{"summary":{"cells":128,"completed":128,"ok":127,"errors":1}}` + "\n",
		`{"cell":{}}` + "\n" + `{"summary":{"cells":128,"completed":128,"ok":128,"cache_hits":3}}` + "\n",
		`{"cell":{}}` + "\n" + `{"cell":{}}` + "\n",
		"",
	} {
		if err := w.checkSweep([]byte(bad)); err == nil {
			t.Errorf("bad stream accepted: %q", bad)
		}
	}
}
