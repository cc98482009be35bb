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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one topomapd process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	waited chan struct{}
	stderr bytes.Buffer
}

// daemonArgs serve with two warm sessions (one per client connection) and a
// cache large enough that no run of any workload evicts.
var daemonArgs = []string{"-addr", "127.0.0.1:0", "-pool", "2", "-cache-bytes", strconv.Itoa(1 << 30)}

// startDaemon launches bin and returns once /healthz answers 200.
func startDaemon(bin string, client *http.Client) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, daemonArgs...), waited: make(chan struct{})}
	// The daemon dies with this process, even when this process is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	lines := &firstLine{ch: make(chan string, 1)}
	d.cmd.Stdout = lines
	d.cmd.Stderr = &lockedWriter{w: &d.stderr}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start topomapd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.waited)
	}()
	select {
	case line := <-lines.ch:
		i := strings.Index(line, "http://")
		if i < 0 {
			d.stop()
			return nil, fmt.Errorf("unexpected topomapd banner %q", line)
		}
		d.url = strings.Fields(line[i:])[0]
	case <-d.waited:
		return nil, fmt.Errorf("topomapd exited during start-up: %s", d.stderr.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("topomapd printed no banner within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("topomapd /healthz not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (topomapd drains and exits) and waits for the process;
// after 10 s it kills it and waits again.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waited
	}
}

// peakRSSMiB reads the VmHWM of process pid.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line")
}

// resetPeakRSS sets this process's VmHWM back to its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// firstLine is a process stdout sink that hands over the first line and
// discards the rest.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.ch <- string(f.buf[:i])
			f.sent, f.buf = true, nil
		}
	}
	return len(p), nil
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// newClient returns an HTTP client that holds at most `clients` connections
// to the daemon.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 3 * time.Minute,
	}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	took   time.Duration
}

// do sends one request and reads the whole reply; took spans from just
// before the request is written to the last body byte.
func do(ctx context.Context, c *http.Client, method, url, ctype, accept string, body []byte) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: data, took: time.Since(start)}, nil
}

// promSample is one scrape of /metrics: sample name (with labels) → value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format: one "name value"
// or "name{labels} value" sample per line, comments skipped.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[name] − before[name]; a sample missing from a scrape
// counts as 0, so a counter a later daemon drops reads as no activity.
func (after promSample) delta(before promSample, name string) float64 {
	return after[name] - before[name]
}

// add accumulates the change of every sample from before to after into sum.
func (sum promSample) add(after, before promSample) {
	for name := range after {
		sum[name] += after.delta(before, name)
	}
}

func scrape(ctx context.Context, c *http.Client, base string) (promSample, error) {
	rep, err := do(ctx, c, http.MethodGet, base+"/metrics", "", "", nil)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rep.status)
	}
	return parseProm(bytes.NewReader(rep.body))
}
