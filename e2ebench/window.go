package main

import (
	"context"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// cpuSlice is the length of the slices the timed window is cut into.
const cpuSlice = time.Second

// The host this benchmark runs on may be a virtual machine whose vCPUs the
// hypervisor takes away for other tenants ("steal" time in /proc/stat).
// Steal slows lampsd and the clients alike, varies from second to second
// and has nothing to do with the code under test. The window is therefore
// cut into slices, each with its own steal share, and the end-to-end
// numbers come from the quieter half of the slices: medians of per-slice
// throughput and CPU per result, and latency percentiles over the requests
// that ended in them. The report states the steal share of the kept slices
// and of the whole window.

// sample is one reading taken at a slice boundary.
type sample struct {
	at    time.Time
	cpu   float64 // lampsd utime+stime, seconds
	steal stealTicks
}

// sampleWindow reads p's CPU time and the host's steal counters at start
// and at every cpuSlice boundary up to until, or until ctx is done.
func sampleWindow(ctx context.Context, p *lampsd, start, until time.Time) []sample {
	var out []sample
	for at := start; !at.After(until); at = at.Add(cpuSlice) {
		select {
		case <-ctx.Done():
			return out
		case <-time.After(time.Until(at)):
		}
		c, err := p.cpuSeconds()
		if err != nil {
			break
		}
		out = append(out, sample{time.Now(), c, hostSteal()})
	}
	return out
}

// stealTicks is the host's cumulative CPU time and the part of it the
// hypervisor stole, from the first line of /proc/stat.
type stealTicks struct{ total, steal float64 }

func hostSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st stealTicks
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// slice is one cut of the timed window.
type slice struct {
	from, to time.Time
	results  float64 // results completed in the slice (see resultsIn)
	cpu      float64 // lampsd CPU seconds
	steal    float64 // stolen share of the host's CPU time
}

// cutSlices cuts the window at the sample times. Slices in which no
// result completed are dropped.
func cutSlices(done []reqSpan, cells int, marks []sample) []slice {
	var out []slice
	for k := 0; k+1 < len(marks); k++ {
		a, b := marks[k], marks[k+1]
		sl := slice{from: a.at, to: b.at, results: resultsIn(done, cells, a.at, b.at), cpu: b.cpu - a.cpu,
			steal: ratio(b.steal.steal-a.steal.steal, b.steal.total-a.steal.total)}
		if sl.results > 0 {
			out = append(out, sl)
		}
	}
	return out
}

// resultsIn estimates the results completed in [a, b): each request counts
// cells results spread evenly over its interval, so a slice is not
// quantised to whole requests (a sweep is 128 results).
func resultsIn(done []reqSpan, cells int, a, b time.Time) float64 {
	var n float64
	for _, r := range done {
		lo, hi := r.start, r.end
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		if d := r.latency(); hi.After(lo) && d > 0 {
			n += float64(cells) * float64(hi.Sub(lo)) / float64(d)
		}
	}
	return n
}

// quietHalf returns the half of ss (rounded up) with the least steal, in
// time order.
func quietHalf(ss []slice) []slice {
	idx := make([]int, len(ss))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return ss[idx[i]].steal < ss[idx[j]].steal })
	idx = idx[:(len(ss)+1)/2]
	sort.Ints(idx)
	out := make([]slice, len(idx))
	for i, k := range idx {
		out[i] = ss[k]
	}
	return out
}

// total merges slices into one: summed results and CPU, time-weighted
// steal, spanning the first slice's start to the last one's end.
func total(ss []slice) slice {
	var t slice
	var dur, stolen float64
	for i, sl := range ss {
		if i == 0 {
			t.from = sl.from
		}
		t.to = sl.to
		t.results += sl.results
		t.cpu += sl.cpu
		d := sl.to.Sub(sl.from).Seconds()
		dur += d
		stolen += sl.steal * d
	}
	t.steal = ratio(stolen, dur)
	return t
}

// keptLatencies returns, sorted and in milliseconds, the latencies of the
// requests that ended inside one of the kept slices.
func keptLatencies(done []reqSpan, kept []slice) []float64 {
	var out []float64
	for _, r := range done {
		for _, sl := range kept {
			if !r.end.Before(sl.from) && r.end.Before(sl.to) {
				out = append(out, ms(r.latency()))
				break
			}
		}
	}
	sort.Float64s(out)
	return out
}
