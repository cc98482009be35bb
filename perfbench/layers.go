package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"service.run_ms", "ms"}, {"service.queue_wait_ms", "ms"},
	{"core.run_ms", "ms"}, {"core.exact_us", "us"},
	{"sim.ticks", "count"}, {"sim.steps", "count"}, {"sim.messages", "count"},
	{"sim.ns_per_step", "ns"}, {"sim.par_tick_frac", "ratio"}, {"sim.bursts", "count"},
	{"graph.decode_us", "us"}, {"graph.digest_us", "us"}, {"graph.encode_us", "us"},
	{"service.lookup_us", "us"}, {"service.hit_ratio", "ratio"},
	{"topomapd.bytes_out_per_req", "bytes"}, {"topomapd.heap_inuse_mb", "MiB"},
	{"topomapd.transport_us", "us"},
	{"remap.patch_us", "us"}, {"remap.rebuild_us", "us"},
	{"remap.dirty_frac", "ratio"}, {"remap.fallback_frac", "ratio"},
	{"trace.replay_s", "s"}, {"trace.untraced_s", "s"},
}

// traceRun replays the run's counted traffic in-process four times —
// untraced, traced, traced, untraced — checks every pass against what the
// daemon (or the library) served, writes the first traced pass's spans, and
// derives the per-layer metrics from them and the daemon's /metrics deltas.
// The tracing overhead compares the faster pass of each kind; the mirrored
// order keeps a warming heap or a drifting machine from favouring either.
func traceRun(ctx context.Context, r *run, hitP50 float64, out string, seed int64) (map[string]metric, *counters, []string, error) {
	var plain, traced []*replayed
	var tr *tracer
	for _, on := range []bool{false, true, true, false} {
		t := &tracer{on: on, t0: time.Now()}
		o, err := replay(ctx, r.workload, r.in, t)
		if err != nil {
			return nil, nil, nil, err
		}
		if !on {
			plain = append(plain, o)
			continue
		}
		if tr == nil {
			tr = t
		}
		traced = append(traced, o)
	}
	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	if err := tr.writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, seed))); err != nil {
		return nil, nil, nil, err
	}

	var problems []string
	for it, w := range r.work {
		if got, ok := traced[0].work[it]; !ok || got != w {
			problems = append(problems, fmt.Sprintf("%s: served ticks/messages %d/%d, traced in-process run %d/%d", it.name, w.ticks, w.msgs, got.ticks, got.msgs))
		}
	}
	for key, p := range r.paths {
		if traced[0].paths[key] != p {
			problems = append(problems, fmt.Sprintf("%s: daemon took the %s path, the in-process patch %q", key, p, traced[0].paths[key]))
		}
	}
	k := traced[0].counted()
	for _, o := range append(plain, traced[1]) {
		if o.counted() != k {
			problems = append(problems, "replay passes counted different work")
			break
		}
	}

	hitPhase := "probe"
	if windowClasses[r.workload]["hit"] {
		hitPhase = "window"
	}
	v := layerValues(tr.spans, traced[0], r, hitPhase, hitP50)
	fastest := func(passes []*replayed) float64 {
		return min(passes[0].wall, passes[1].wall).Seconds()
	}
	v["trace.replay_s"] = fastest(traced)
	v["trace.untraced_s"] = fastest(plain)
	m := map[string]metric{}
	for _, l := range perLayer {
		x := v[l.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		m[l.name] = metric{Value: x, Unit: l.unit}
	}
	return m, &k, problems, nil
}

// layerValues derives the per-layer figures. Span figures are medians over
// the workload's own replayed traffic where it has calls into that layer,
// else over the probe's.
func layerValues(spans []span, o *replayed, r *run, hitPhase string, hitP50 float64) map[string]float64 {
	durs := map[string]map[string][]float64{} // name → phase → µs
	type reqSpans struct {
		phase                  string
		decode, digest, lookup float64
		engine, digested, seen bool
	}
	reqs := map[int32]*reqSpans{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		if durs[s.Name] == nil {
			durs[s.Name] = map[string][]float64{}
		}
		durs[s.Name][s.Phase] = append(durs[s.Name][s.Phase], d)
		q := reqs[s.Req]
		if q == nil {
			q = &reqSpans{phase: s.Phase}
			reqs[s.Req] = q
		}
		switch s.Name {
		case "graph.decode":
			q.decode = d
		case "graph.digest":
			q.digest, q.digested = d, true
		case "service.lookup":
			q.lookup, q.seen = d, true
		case "core.run":
			q.engine = true
		}
	}
	pick := func(byPhase map[string][]float64) []float64 {
		if x := byPhase["window"]; len(x) > 0 {
			return x
		}
		return byPhase["probe"]
	}
	p50 := func(name string) float64 { return percentile(pick(durs[name]), 50) }

	self := map[string][]float64{}
	var hitDecode, hitLookup []float64
	for _, q := range reqs {
		if !q.seen || !q.digested {
			continue
		}
		self[q.phase] = append(self[q.phase], q.lookup-q.digest)
		if !q.engine && q.phase == hitPhase {
			hitDecode = append(hitDecode, q.decode)
			hitLookup = append(hitLookup, q.lookup)
		}
	}

	v := map[string]float64{
		"core.run_ms":           p50("core.run") / 1e3,
		"core.exact_us":         p50("core.exact"),
		"graph.decode_us":       p50("graph.decode"),
		"graph.digest_us":       p50("graph.digest"),
		"graph.encode_us":       p50("graph.encode"),
		"service.lookup_us":     percentile(pick(self), 50),
		"remap.patch_us":        p50("remap.patch"),
		"remap.rebuild_us":      p50("remap.rebuild"),
		"remap.dirty_frac":      mean(pick(o.dirty)),
		"topomapd.transport_us": hitP50 - percentile(hitDecode, 50) - percentile(hitLookup, 50),
	}

	k := o.counted()
	v["sim.ticks"] = float64(k.Ticks)
	v["sim.messages"] = float64(k.Messages)
	v["sim.steps"] = float64(o.steps)
	v["sim.ns_per_step"] = float64(o.runNS) / float64(o.steps)
	v["sim.par_tick_frac"] = float64(o.parTicks) / float64(k.Ticks)
	v["sim.bursts"] = float64(o.bursts)

	// /metrics deltas over the window, or over the probe when the window
	// gave the ratio nothing to divide by.
	ratio := func(num, den []string, scale float64) float64 {
		for _, delta := range []promSample{r.windowDelta, r.probeDelta} {
			var n, d float64
			for _, s := range num {
				n += delta[s]
			}
			for _, s := range den {
				d += delta[s]
			}
			if d > 0 {
				return scale * n / d
			}
		}
		return math.NaN()
	}
	v["service.run_ms"] = ratio([]string{"topomapd_run_seconds_sum"}, []string{"topomapd_run_seconds_count"}, 1e3)
	v["service.queue_wait_ms"] = ratio([]string{"topomapd_queue_wait_seconds_sum"}, []string{"topomapd_queue_wait_seconds_count"}, 1e3)
	v["service.hit_ratio"] = ratio([]string{"topomapd_cache_hits_total"},
		[]string{"topomapd_cache_hits_total", "topomapd_cache_misses_total", "topomapd_cache_shared_total"}, 1)
	v["topomapd.bytes_out_per_req"] = ratio([]string{"topomapd_codec_bytes_out_total"},
		[]string{`topomapd_codec_responses_total{codec="json"}`, `topomapd_codec_responses_total{codec="binary"}`}, 1)
	v["remap.fallback_frac"] = ratio([]string{"topomapd_remap_full_total"},
		[]string{"topomapd_remap_full_total", "topomapd_remap_incremental_total"}, 1)
	v["topomapd.heap_inuse_mb"] = r.heapMiB
	return v
}
