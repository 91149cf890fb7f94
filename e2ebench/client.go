package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// splice is a request body made of three byte slices sent back to back,
// so a unique body costs no copy of the shared prefix.
type splice struct{ parts [3][]byte }

func (s *splice) Read(p []byte) (int, error) {
	for i := range s.parts {
		if len(s.parts[i]) > 0 {
			n := copy(p, s.parts[i])
			s.parts[i] = s.parts[i][n:]
			return n, nil
		}
	}
	return 0, io.EOF
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	mid  []byte       // reused buffer for the varying part of the body
	buf  bytes.Buffer // the last response body
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// exchange is the client-side record of one request.
type exchange struct {
	status    int
	source    string // X-Lamps-Cache
	reqBytes  int64
	latency   time.Duration // send to last byte
	wrote     time.Time     // request fully written (traced only)
	firstByte time.Time     // first response byte (traced only)
	start     time.Time
}

// send posts request r of w and reads the whole response into c.buf. With
// traced set it also records when the request was written and when the
// first response byte arrived.
func (c *client) send(ctx context.Context, w *workload, r int64, traced bool) (exchange, error) {
	c.mid = w.appendMid(c.mid[:0], r)
	pre := w.prefix[w.graphOf(r)]
	n := int64(len(pre) + len(c.mid) + len(w.suffix))
	newBody := func() (io.ReadCloser, error) {
		return io.NopCloser(&splice{parts: [3][]byte{pre, c.mid, w.suffix}}), nil
	}
	var ex exchange
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { ex.wrote = time.Now() },
			GotFirstResponseByte: func() { ex.firstByte = time.Now() },
		})
	}
	body, _ := newBody()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+w.path, body)
	if err != nil {
		return exchange{}, err
	}
	req.ContentLength = n
	req.GetBody = newBody
	req.Header.Set("Content-Type", "application/json")
	ex.reqBytes = n
	ex.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return ex, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	ex.latency = time.Since(ex.start)
	ex.status = resp.StatusCode
	ex.source = resp.Header.Get("X-Lamps-Cache")
	if err != nil {
		return ex, fmt.Errorf("reading response: %w", err)
	}
	return ex, nil
}

// reqSpan is one completed request's client-side interval.
type reqSpan struct{ start, end time.Time }

func (r reqSpan) latency() time.Duration { return r.end.Sub(r.start) }

// tally accumulates the outcome of a closed-loop phase.
type tally struct {
	mu        sync.Mutex
	done      []reqSpan
	results   int64
	attempted int64
	failed    int64
	reqBytes  int64
	respBytes int64
	firstErr  string
	elapsed   time.Duration
}

func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

// loop runs len(cs) closed-loop callers, each sending its next request as
// soon as the previous one completes, until the deadline passes, request
// number limit is reached (0 = no limit) or ctx is done. Request numbers
// come from next, so every request of a run is distinct. handle checks one
// response; it runs on the caller's goroutine. The phase ends when the last
// in-flight request has completed.
func loop(ctx context.Context, cs []*client, w *workload, next *atomic.Int64, until time.Time, limit int64, traced bool,
	handle func(c *client, r int64, ex exchange) error) *tally {
	t := &tally{}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var done []reqSpan
			var res, att, rb, sb int64
			for time.Now().Before(until) && ctx.Err() == nil {
				r := next.Add(1) - 1
				if limit > 0 && r >= limit {
					break
				}
				att++
				ex, err := c.send(ctx, w, r, traced)
				if err == nil {
					err = handle(c, r, ex)
				}
				if err != nil {
					t.fail(fmt.Errorf("request %d: %w", r, err))
					continue
				}
				done = append(done, reqSpan{ex.start, ex.start.Add(ex.latency)})
				res += int64(w.cells)
				rb += ex.reqBytes
				sb += int64(c.buf.Len())
			}
			t.mu.Lock()
			t.done = append(t.done, done...)
			t.results += res
			t.attempted += att
			t.reqBytes += rb
			t.respBytes += sb
			t.mu.Unlock()
		}(c)
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}
