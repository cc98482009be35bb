// Command perfbench is the repository benchmark: it starts the real
// topomapd on loopback, drives it from this one process over at most two
// client connections, checks every reply, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of an in-process replay of the
// same inputs). See README.md for the workloads and metrics.
//
// Run it through run.sh, which builds topomapd and this command first:
//
//	bash perfbench/run.sh --workload cold_mix --seed 1 --seconds 22 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output: whether every check passed, the
// request counts, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env identifies the machine and the code a run measured.
type env struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
}

// report is the full record of a run: printed before the result line and
// written under the build directory.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    int            `json:"seconds"`
	Env        env            `json:"env"`
	Work       counters       `json:"work"`
	ReplayWork *counters      `json:"replay_work,omitempty"`
	Attempted  int64          `json:"attempted"`
	Failed     int64          `json:"failed"`
	WindowOK   int            `json:"window_verified"`
	Samples    map[string]int `json:"samples"`
	// StealS is the CPU time the hypervisor gave other guests during the
	// run, summed over CPUs: a run with much of it measured a shared
	// machine, not the code.
	StealS      float64   `json:"steal_s"`
	StealSlices []float64 `json:"steal_slices_s"`
	// HitP99s are the hit p99s of the stretches hit_p99_us is taken over.
	HitP99s  []float64         `json:"hit_p99_stretches_us"`
	SetupS   []float64         `json:"setup_s_each"`
	Metrics  map[string]metric `json:"metrics"`
	Layers   map[string]metric `json:"layers,omitempty"`
	Problems []string          `json:"problems,omitempty"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload = fl.String("workload", "", "cold_mix, warm_zipf or library_large")
		seed     = fl.Int64("seed", 1, "input seed")
		seconds  = fl.Int("seconds", 22, "length of the measured window")
		trace    = fl.Int("trace", 0, "1 = also replay the inputs in-process with spans and report per-layer metrics")
		bin      = fl.String("daemon", "", "topomapd binary")
		out      = fl.String("out", ".bench_build", "directory for reports, span files and work counters")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -daemon and --seconds ≥ 1 are required")
		return 2
	}
	rep, res, err := bench(*workload, *seed, *seconds, *trace == 1, *bin, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err := os.MkdirAll(filepath.Join(*out, "results"), 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace)
		_ = os.WriteFile(filepath.Join(*out, "results", name), append(line, '\n'), 0o644)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
	}
	final, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", final)
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"throughput_rps", "req/s"},
	{"cold_p50_ms", "ms"}, {"cold_p90_ms", "ms"},
	{"hit_p50_us", "us"}, {"hit_p99_us", "us"},
	{"patch_p50_us", "us"}, {"patch_p90_us", "us"},
	{"rss_peak_mb", "MiB"},
}

// windowClasses are the request classes each workload's own traffic
// measures; the other classes' latencies come from the probe. "hit tail" is
// hit_p99_us.
var windowClasses = map[string]map[string]bool{
	"cold_mix":      {"cold": true},
	"warm_zipf":     {"hit": true, "hit tail": true},
	"library_large": {"cold": true},
}

func bench(workload string, seed int64, seconds int, trace bool, bin, out string) (*report, *result, error) {
	if windowClasses[workload] == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	in, err := makeInputs(workload, seed)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	r := newRun(workload, bin, in)
	steal := stealSeconds()
	if err := r.execute(ctx, seconds); err != nil {
		return nil, nil, err
	}
	steal = stealSeconds() - steal

	rep := &report{
		Workload: workload, Seed: seed, Trace: trace, Seconds: seconds,
		Env: readEnv(), Work: r.counted(), Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		WindowOK: r.done, SetupS: r.setup, StealS: steal, StealSlices: r.steal, Problems: r.errors(),
	}
	rep.Metrics, rep.Samples = r.endToEnd()
	rep.HitP99s = r.source("hit tail").stretchP99s()
	if trace {
		layers, replayWork, problems, err := traceRun(ctx, r, rep.Metrics["hit_p50_us"].Value, out, seed)
		if err != nil {
			return nil, nil, err
		}
		rep.Layers, rep.ReplayWork = layers, replayWork
		rep.Problems = append(rep.Problems, problems...)
	}
	if r.ranOut.Load() {
		rep.Problems = append(rep.Problems, "the window ran out of inputs before its deadline")
	}
	// Only a clean run's counters are recorded as the reference for its seed
	// and source.
	if len(rep.Problems) == 0 {
		if err := checkCounters(out, workload, seed, rep.Env.SourceHash, rep.Work); err != nil {
			rep.Problems = append(rep.Problems, err.Error())
		}
	}
	for _, m := range endToEnd {
		if v := rep.Metrics[m.name].Value; !(v > 0) || math.IsInf(v, 0) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s has no positive value", m.name))
			rep.Metrics[m.name] = metric{Value: 0, Unit: m.unit}
		}
	}
	res := &result{
		Correct:   len(rep.Problems) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   rep.Metrics,
	}
	if trace {
		res.Metrics = rep.Layers
	}
	return rep, res, nil
}

// windowSlices is the number of pieces the window and the probe are cut
// into and interleaved, so both average over the whole run rather than over
// one stretch of the machine's own drift.
const windowSlices = 16

// execute runs the set-up, then alternates probe and window slices, then
// stops the daemon.
func (r *run) execute(ctx context.Context, seconds int) (err error) {
	defer func() {
		if r.d != nil {
			r.d.stop()
		}
	}()
	if err = r.setupPhase(ctx); err != nil {
		return err
	}
	before, err := scrape(ctx, r.client, r.d.url)
	if err != nil {
		return err
	}
	for k := 0; k < windowSlices; k++ {
		steal := stealSeconds()
		// Each timed phase starts from a collected heap in this process,
		// so garbage of the previous phase is not collected on its clock.
		runtime.GC()
		restore := pauseGC()
		r.probePhase(ctx, k)
		restore()
		mid, err := scrape(ctx, r.client, r.d.url)
		if err != nil {
			return err
		}
		r.probeDelta.add(mid, before)
		// A slice's requests in flight at its deadline run over it; the
		// next slice is shortened by the overrun, so the window's total
		// length stays the requested seconds.
		length := time.Duration(seconds)*time.Second*time.Duration(k+1)/windowSlices - r.took
		if r.workload == "library_large" {
			// The maps allocate in this process, so their collections
			// are part of what the workload measures, and its peak RSS is
			// taken over the maps alone, not the probe's load generation.
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return err
			}
			r.windowPhase(ctx, length)
			rss, err := peakRSSMiB(os.Getpid())
			if err != nil {
				return err
			}
			r.rssMiB = max(r.rssMiB, rss)
		} else {
			restore = pauseGC()
			r.windowPhase(ctx, length)
			restore()
		}
		if before, err = scrape(ctx, r.client, r.d.url); err != nil {
			return err
		}
		r.windowDelta.add(before, mid)
		r.steal = append(r.steal, stealSeconds()-steal)
	}
	r.probeCold()
	r.heapMiB = before["topomapd_heap_inuse_bytes"] / (1 << 20)
	if r.workload != "library_large" {
		if r.rssMiB, err = peakRSSMiB(r.d.cmd.Process.Pid); err != nil {
			return err
		}
	}
	r.completePrefix(ctx)
	return nil
}

// source returns the samples a request class's metrics come from: the
// window where the workload's traffic has that class, else the probe.
func (r *run) source(class string) *samples {
	if windowClasses[r.workload][class] {
		return &r.window
	}
	return &r.probe
}

// pauseGC stops this process's garbage collector until the returned
// function restores it, which collects what the phase left. Load generation
// allocates for every request, and its collections would otherwise take a
// core from the daemon in the middle of the requests they are timing. A
// memory limit keeps a phase that allocates far more than expected from
// growing without bound.
func pauseGC() (restore func()) {
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(pauseGCLimit)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
		runtime.GC()
	}
}

const pauseGCLimit = 1 << 30

// endToEnd computes the end-to-end metrics and their sample counts.
func (r *run) endToEnd() (map[string]metric, map[string]int) {
	src := r.source
	cold, hit, patch := src("cold").cold, src("hit").hit, src("patch").patch
	m := map[string]metric{
		"setup_s":        {percentile(append([]float64(nil), r.setup...), 50), "s"},
		"throughput_rps": {float64(r.done) / r.took.Seconds(), "req/s"},
		"cold_p50_ms":    {percentile(cold, 50) / 1e3, "ms"},
		"cold_p90_ms":    {percentile(cold, 90) / 1e3, "ms"},
		"hit_p50_us":     {percentile(hit, 50), "us"},
		"hit_p99_us":     {src("hit tail").hitP99(), "us"},
		"patch_p50_us":   {percentile(patch, 50), "us"},
		"patch_p90_us":   {percentile(patch, 90), "us"},
		"rss_peak_mb":    {r.rssMiB, "MiB"},
	}
	return m, map[string]int{"cold": len(cold), "hit": len(hit), "patch": len(patch), "setup": len(r.setup)}
}

// checkCounters compares the run's work counters with those recorded by an
// earlier run of the same workload and seed on the same source, or records
// them. Keying by the source digest keeps a code change that changes the
// work from reading as a wrong answer; the report still shows the counters.
func checkCounters(out, workload string, seed int64, source string, k counters) error {
	dir := filepath.Join(out, "counters")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%.16s.json", workload, seed, source))
	got, err := json.Marshal(k)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return os.WriteFile(path, got, 0o644)
	}
	if err != nil {
		return err
	}
	if string(prev) != string(got) {
		return fmt.Errorf("work counters %s differ from an earlier run of this seed: %s", got, prev)
	}
	return nil
}

// stealSeconds reads the steal time of all CPUs from /proc/stat, 0 where
// the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func readEnv() env {
	e := env{
		Commit:     gitHead("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		SourceHash: sourceHash("."),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// gitHead reads the checked-out commit from a .git directory at root, or
// returns "unknown" (the benchmark also runs from plain source trees).
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod under root (build outputs
// and hidden directories skipped), naming the code a run measured even where
// no commit is known.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
