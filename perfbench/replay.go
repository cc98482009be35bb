package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/remap"
	"topomap/internal/service"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent is the index of the enclosing span (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A disabled tracer records nothing and reads
// no clock, which is how the untraced replay runs the same calls.
type tracer struct {
	on    bool
	t0    time.Time
	phase string
	req   int32
	spans []span
}

func (t *tracer) begin(name string, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Phase: t.phase, Req: t.req, Parent: parent, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// request opens the root span of the next replayed request.
func (t *tracer) request() int32 {
	t.req++
	return t.begin("request", -1)
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemonRunOptions are the engine options topomapd serves with: one worker
// per run (its -workers default).
func daemonRunOptions() core.Options { return core.Options{Workers: 1} }

// replayed is what one replay pass measured.
type replayed struct {
	work     map[*item]engineWork
	paths    map[string]string
	steps    int64
	parTicks int64
	bursts   int64
	runNS    int64
	dirty    map[string][]float64 // dirty/N of incremental patches, by phase
	wall     time.Duration
}

// replayer replays a run's counted traffic in-process, calling each layer's
// public functions directly: the codec, the canonical digest, the service
// pool's cache lookup and remap, the engine session, and the remap layer.
type replayer struct {
	tr   *tracer
	ctx  context.Context
	sess *core.Session
	pool *service.Pool
	out  *replayed
}

func replay(ctx context.Context, workload string, in *inputs, tr *tracer) (*replayed, error) {
	rp := &replayer{
		tr: tr, ctx: ctx,
		sess: core.NewSession(daemonRunOptions()),
		pool: service.New(service.Options{Size: 1, CacheBytes: 1 << 30, Run: daemonRunOptions()}),
		out:  &replayed{work: map[*item]engineWork{}, paths: map[string]string{}, dirty: map[string][]float64{}},
	}
	defer rp.sess.Close()
	defer rp.pool.Close()
	start := time.Now()
	if err := rp.workload(workload, in); err != nil {
		return nil, err
	}
	if err := rp.probe(in.probe); err != nil {
		return nil, err
	}
	rp.out.wall = time.Since(start)
	return rp.out, nil
}

func (rp *replayer) workload(workload string, in *inputs) error {
	rp.tr.phase = "window"
	switch workload {
	case "cold_mix":
		for _, it := range in.cold[:coldPrefix] {
			if err := rp.cold(it, false); err != nil {
				return err
			}
		}
	case "warm_zipf":
		for _, it := range in.catalog {
			if err := rp.cold(it, true); err != nil {
				return err
			}
		}
		for _, k := range in.zipf[:zipfPrefix] {
			if err := rp.hit(in.catalog[k]); err != nil {
				return err
			}
		}
	case "library_large":
		for _, it := range in.library[:libraryPrefix] {
			if err := rp.libraryMap(it); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rp *replayer) probe(p *probeSet) error {
	rp.tr.phase = "probe"
	items := p.items[:probePrefix]
	// The probe's graphs run on the core session, so every workload has
	// engine spans, and then once more through the pool for the hits.
	for _, it := range items {
		if err := rp.cold(it, false); err != nil {
			return err
		}
		if _, err := rp.fill(it, it.g); err != nil {
			return err
		}
	}
	for i := 0; i < 4*len(items); i++ {
		if err := rp.hit(items[i%len(items)]); err != nil {
			return err
		}
	}
	for i, it := range items {
		cur, st, err := remap.Rebuild(it.g, it.root)
		if err != nil {
			return err
		}
		dig := it.dig
		for j := 0; j < probeChainLen; j++ {
			if cur, st, dig, err = rp.patch(fmt.Sprintf("probe%d/%d", i, j), cur, st, dig, mix(probeChainSeed, int64(i)), j); err != nil {
				return err
			}
		}
	}
	return nil
}

// run times one engine run on a session and accumulates its counters.
func (rp *replayer) run(s *core.Session, it *item, g *graph.Graph, parent int32) (*core.RunResult, error) {
	t := time.Now()
	sp := rp.tr.begin("core.run", parent)
	res, err := s.RunRooted(g, it.root)
	rp.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", it.name, err)
	}
	rp.out.runNS += int64(time.Since(t))
	return res, rp.account(it, g, res, parent)
}

// serve runs the engine through the service pool instead, which leaves the
// result in the pool's cache for later lookups.
func (rp *replayer) serve(it *item, g *graph.Graph, parent int32) (*core.RunResult, error) {
	sp := rp.tr.begin("service.run", parent)
	res, err := rp.fill(it, g)
	rp.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", it.name, err)
	}
	return res, rp.account(it, g, res, parent)
}

func (rp *replayer) fill(it *item, g *graph.Graph) (*core.RunResult, error) {
	root := it.root
	j, err := rp.pool.Submit(rp.ctx, g, service.JobOptions{Root: &root})
	if err != nil {
		return nil, err
	}
	return j.Await(rp.ctx)
}

// account adds a run's counters and verifies its reconstruction.
func (rp *replayer) account(it *item, g *graph.Graph, res *core.RunResult, parent int32) error {
	rp.out.work[it] = engineWork{ticks: res.Stats.Ticks, msgs: res.Stats.NonBlankMessages}
	rp.out.steps += res.Stats.StepCalls
	rp.out.parTicks += res.Stats.ParTicks
	rp.out.bursts += res.Stats.Bursts
	sp := rp.tr.begin("core.exact", parent)
	exact := core.Exact(g, it.root, res.Topology)
	rp.tr.end(sp)
	if !exact {
		return fmt.Errorf("replay %s: reconstruction is not exact", it.name)
	}
	return nil
}

// cold replays a POST that misses the cache: decode, digest, lookup, engine
// run, verification, and the encode of both reply codecs the daemon stores.
// With cache the run goes through the service pool, so later hits find it;
// otherwise it runs on the core session.
func (rp *replayer) cold(it *item, cache bool) error {
	root := rp.tr.request()
	g, err := rp.lookup(it, root, false)
	if err != nil {
		return err
	}
	var res *core.RunResult
	if cache {
		res, err = rp.serve(it, g, root)
	} else {
		res, err = rp.run(rp.sess, it, g, root)
	}
	if err != nil {
		return err
	}
	sp := rp.tr.begin("graph.encode", root)
	_ = res.Topology.MarshalString()
	_, err = res.Topology.MarshalBinary()
	rp.tr.end(sp)
	rp.tr.end(root)
	return err
}

// hit replays a POST served from the cache: decode, digest, lookup.
func (rp *replayer) hit(it *item) error {
	root := rp.tr.request()
	_, err := rp.lookup(it, root, true)
	rp.tr.end(root)
	return err
}

// lookup decodes the item's body, digests it, and looks it up in the pool,
// which must hit exactly when wantHit.
func (rp *replayer) lookup(it *item, parent int32, wantHit bool) (*graph.Graph, error) {
	sp := rp.tr.begin("graph.decode", parent)
	g, err := graph.UnmarshalBinaryFrom(bytes.NewReader(it.body), 0)
	rp.tr.end(sp)
	if err != nil {
		return nil, err
	}
	// The unspanned digest warms what the first digest of a graph pays for,
	// so the spanned one costs what the digest inside LookupDigest does and
	// the lookup's self time (its span less the digest's) is not skewed.
	_ = g.CanonicalDigest(it.root)
	sp = rp.tr.begin("graph.digest", parent)
	dig := g.CanonicalDigest(it.root)
	rp.tr.end(sp)
	sp = rp.tr.begin("service.lookup", parent)
	ent, _, _ := rp.pool.LookupDigest(g, it.root)
	rp.tr.end(sp)
	if dig != it.dig {
		return nil, fmt.Errorf("replay %s: decoded graph has another digest", it.name)
	}
	if (ent != nil) != wantHit {
		return nil, fmt.Errorf("replay %s: cache hit = %v, want %v", it.name, ent != nil, wantHit)
	}
	return g, nil
}

// libraryMap replays one topomap.Map call of library_large: a fresh session
// with zero options per map, as Map builds one.
func (rp *replayer) libraryMap(it *item) error {
	s := core.NewSession(core.Options{})
	defer s.Close()
	root := rp.tr.request()
	_, err := rp.run(s, it, it.g, root)
	rp.tr.end(root)
	return err
}

// patch replays one chain step: remap.Patch of the delta against the current
// reconstruction and remap.Rebuild of the post-delta network.
func (rp *replayer) patch(key string, cur *graph.Graph, st *remap.State, dig graph.Digest, seed int64, j int) (*graph.Graph, *remap.State, graph.Digest, error) {
	d, err := chainDelta(cur, seed, j)
	if err != nil {
		return nil, nil, dig, err
	}
	g1, err := d.ApplyClone(cur)
	if err != nil {
		return nil, nil, dig, err
	}
	root := rp.tr.request()
	sp := rp.tr.begin("remap.patch", root)
	res, perr := remap.Patch(cur, st, d, remap.Options{})
	rp.tr.end(sp)
	sp = rp.tr.begin("remap.rebuild", root)
	want, wst, err := remap.Rebuild(g1, 0)
	rp.tr.end(sp)
	rp.tr.end(root)
	if err != nil {
		return nil, nil, dig, err
	}
	// Patch refuses only a delta whose dirty set is over its threshold; the
	// daemon then runs the engine instead.
	if perr != nil {
		rp.out.paths[key] = "full"
	} else {
		if !res.Graph.Equal(want) {
			return nil, nil, dig, fmt.Errorf("replay %s: patch differs from rebuild", key)
		}
		rp.out.paths[key] = "incremental"
		rp.out.dirty[rp.tr.phase] = append(rp.out.dirty[rp.tr.phase], float64(res.Dirty)/float64(want.N()))
	}
	return want, wst, want.CanonicalDigest(0), nil
}

// counted sums the replay's engine work and PATCH paths like run.counted.
func (o *replayed) counted() counters { return count(o.work, o.paths) }
