package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// lampsdFlags are the server flags every workload uses. The cache is small
// enough that the miss workloads fill it during warm-up, so every timed
// insert also evicts and the heap is at its steady size before timing.
var lampsdFlags = []string{"-addr", "127.0.0.1:0", "-cache", "128"}

// cacheEntries is the -cache value above.
const cacheEntries = 128

// lampsd is one running server process.
type lampsd struct {
	cmd     *exec.Cmd
	logPath string
	base    string // http://host:port
	done    chan error
}

var listenRE = regexp.MustCompile(`"msg":"listening","addr":"([^"]+)"`)

// startLampsd spawns bin with lampsdFlags, its JSON log going to logPath,
// and returns once /healthz answers.
func startLampsd(ctx context.Context, bin, logPath string) (*lampsd, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating lampsd log: %w", err)
	}
	defer logf.Close()
	cmd := exec.Command(bin, lampsdFlags...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If this process dies without stopping lampsd, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lampsd: %w", err)
	}
	p := &lampsd{cmd: cmd, logPath: logPath, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	if err := p.waitReady(ctx); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// waitReady polls the log for the bound address, then /healthz.
func (p *lampsd) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for p.base == "" {
		b, err := os.ReadFile(p.logPath)
		if err != nil {
			return fmt.Errorf("reading lampsd log: %w", err)
		}
		if m := listenRE.FindSubmatch(b); m != nil {
			p.base = "http://" + string(m[1])
			break
		}
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("lampsd exited before listening (%v): %s", err, b)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("lampsd did not report its address within 30s")
		}
	}
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lampsd /healthz not ready within 30s: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited after 15 seconds. It returns once the process has ended.
func (p *lampsd) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case err := <-p.done:
		p.done <- err
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		p.done <- <-p.done
	}
}

// cpuSeconds returns the process's user+system CPU time from
// /proc/<pid>/stat.
func (p *lampsd) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, fmt.Errorf("reading lampsd stat: %w", err)
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being the
	// 14th and 15th fields overall.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed utime/stime in /proc stat")
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MiB.
func (p *lampsd) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("reading lampsd status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches /metrics and parses it into series → value.
func (p *lampsd) scrape() (metricSet, error) {
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("fetching /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// metricSet maps a Prometheus series (name plus its label text, exactly as
// exposed) to its value.
type metricSet map[string]float64

// parseMetrics reads the Prometheus text exposition format.
func parseMetrics(r io.Reader) (metricSet, error) {
	m := metricSet{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q", line)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds every series whose name (the text before any label block) is
// name.
func (m metricSet) sum(name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta returns after.sum(name) - before.sum(name).
func delta(before, after metricSet, name string) float64 {
	return after.sum(name) - before.sum(name)
}
