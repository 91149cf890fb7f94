package main

import (
	"math"
	"testing"
	"time"
)

func TestResultsInSpreadsRequestsOverTheirInterval(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	done := []reqSpan{
		{at(0), at(1000)},    // wholly in the first second
		{at(500), at(1500)},  // half in each
		{at(1200), at(1300)}, // wholly in the second
	}
	if got := resultsIn(done, 128, at(0), at(1000)); math.Abs(got-192) > 1e-9 {
		t.Errorf("first second: %v results, want 192", got)
	}
	if got := resultsIn(done, 128, at(1000), at(2000)); math.Abs(got-192) > 1e-9 {
		t.Errorf("second second: %v results, want 192", got)
	}
	if got := resultsIn(done, 1, at(0), at(2000)); math.Abs(got-3) > 1e-9 {
		t.Errorf("whole window: %v results, want 3", got)
	}
}

func TestQuietHalfKeepsLeastStolenSlicesInOrder(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var ss []slice
	for i, st := range []float64{0.3, 0.01, 0.2, 0.02, 0.05} {
		ss = append(ss, slice{from: t0.Add(time.Duration(i) * time.Second), to: t0.Add(time.Duration(i+1) * time.Second), results: 1, steal: st})
	}
	kept := quietHalf(ss)
	if len(kept) != 3 {
		t.Fatalf("kept %d of 5 slices, want 3", len(kept))
	}
	for i, want := range []float64{0.01, 0.02, 0.05} {
		if kept[i].steal != want {
			t.Errorf("kept[%d].steal = %v, want %v", i, kept[i].steal, want)
		}
	}
	all := total(ss)
	if all.results != 5 || math.Abs(all.steal-0.116) > 1e-9 || all.to.Sub(all.from) != 5*time.Second {
		t.Errorf("total = %+v", all)
	}
}

func TestKeptLatenciesUsesRequestEnds(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	kept := []slice{{from: at(1000), to: at(2000)}}
	done := []reqSpan{
		{at(900), at(1010)},  // ends in the kept slice: 110 ms
		{at(1900), at(2010)}, // ends after it
		{at(1500), at(1520)}, // 20 ms
	}
	got := keptLatencies(done, kept)
	if len(got) != 2 || got[0] != 20 || got[1] != 110 {
		t.Errorf("kept latencies %v, want [20 110]", got)
	}
}
