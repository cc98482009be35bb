package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"topomap"
	"topomap/internal/graph"
	"topomap/internal/remap"
)

// Replay prefixes: the leading part of each workload's traffic whose work
// counters are recorded (identical for every run of a seed) and which the
// traced run replays in-process. Every window reaches them; a run that does
// not completes them after the window, untimed.
const (
	coldPrefix    = 12   // cold_mix graphs
	libraryPrefix = 4    // library_large maps
	zipfPrefix    = 2000 // warm_zipf requests (replayed, not counted)
)

// samples are client-side latencies in microseconds, by request class,
// plus the hits cut into stretches of consecutive slices.
type samples struct {
	cold, hit, patch []float64
	stretches        [][]float64
}

// minStretch is the fewest hits a stretch holds: ten beyond its p99.
const minStretch = 1000

// addSlice merges the clients' samples of one slice. A slice's hits join
// the last stretch until it holds minStretch of them.
func (s *samples) addSlice(per []samples) {
	var hits []float64
	for _, o := range per {
		s.cold = append(s.cold, o.cold...)
		s.patch = append(s.patch, o.patch...)
		hits = append(hits, o.hit...)
	}
	s.hit = append(s.hit, hits...)
	if n := len(s.stretches); n == 0 || len(s.stretches[n-1]) >= minStretch {
		s.stretches = append(s.stretches, nil)
	}
	s.stretches[len(s.stretches)-1] = append(s.stretches[len(s.stretches)-1], hits...)
}

// hitP99 is the first quartile of the stretches' hit p99s: the tail of the
// run's quieter stretches. On a shared machine a loopback p99 mostly
// measures other tenants, whose bursts and hypervisor steal can cover half a
// run's stretches, and would otherwise set the figure; a change to the code
// moves every stretch's p99.
func (s *samples) hitP99() float64 { return percentile(s.stretchP99s(), 25) }

// stretchP99s are the hit p99s of the stretches, a short last stretch
// counted with the one before it.
func (s *samples) stretchP99s() []float64 {
	st := s.stretches
	if n := len(st); n > 1 && len(st[n-1]) < minStretch {
		st = append(st[:n-2:n-2], append(st[n-2], st[n-1]...))
	}
	var p99s []float64
	for _, h := range st {
		if len(h) > 0 {
			p99s = append(p99s, percentile(h, 99))
		}
	}
	return p99s
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// engineWork is the protocol work of one engine run as the daemon (or the
// library) reported it.
type engineWork struct {
	ticks int
	msgs  int64
}

// counters are the run's deterministic work: engine ticks and messages over
// the counted runs, and PATCH outcomes by path. They depend only on the seed.
type counters struct {
	Runs             int   `json:"runs"`
	Ticks            int64 `json:"ticks"`
	Messages         int64 `json:"messages"`
	PatchIncremental int   `json:"patch_incremental"`
	PatchFull        int   `json:"patch_full"`
}

// run is one benchmark pass: the daemon under test, the inputs, and what the
// traffic observed.
type run struct {
	workload string
	in       *inputs
	bin      string
	client   *http.Client
	d        *daemon

	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
	work              map[*item]engineWork // counted engine runs
	paths             map[string]string    // counted PATCHes: step key → path
	replies           map[*item]*[2][]byte // recorded JSON and tmr1 replies

	setup  []float64 // seconds, one per set-up
	window samples
	probe  samples
	// probeRuns are the latencies of each probe graph's cold POST and
	// uncached runs; the probe's cold samples are their medians.
	probeRuns [][1 + probeReruns]float64
	next      atomic.Int64  // cursor into the window's request sequence
	ranOut    atomic.Bool   // a window slice used up its inputs before its deadline
	done      int           // verified requests completed in the window
	took      time.Duration // summed slice lengths, first send to last reply
	steal     []float64     // hypervisor steal seconds during each slice and its probe
	rssMiB    float64
	// heapMiB is the daemon's live heap after the last window slice.
	heapMiB float64
	// /metrics deltas summed over the window's slices and the probe's.
	windowDelta, probeDelta promSample
}

func newRun(workload, bin string, in *inputs) *run {
	return &run{
		workload: workload, in: in, bin: bin, client: newClient(),
		work:    map[*item]engineWork{},
		paths:   map[string]string{},
		replies: map[*item]*[2][]byte{},

		windowDelta: promSample{},
		probeDelta:  promSample{},
		probeRuns:   make([][1 + probeReruns]float64, len(in.probe.items)),
	}
}

// probeCold adds each probe graph's median run to the probe's cold samples:
// one request caught by contention does not set the cold percentiles.
func (r *run) probeCold() {
	for i := range r.probeRuns {
		r.probe.cold = append(r.probe.cold, percentile(r.probeRuns[i][:], 50))
	}
}

// fail records one failed request.
func (r *run) fail(what string, err error) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, what+": "+err.Error())
	}
}

// parallel runs body on n goroutines and waits for them.
func parallel(n int, body func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
}

// each runs op on every element of items across n clients, in order of a
// shared cursor.
func each[T any](n int, items []T, op func(c int, x T)) {
	var next atomic.Int64
	parallel(n, func(c int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(items) {
				return
			}
			op(c, items[i])
		}
	})
}

func (r *run) mapURL(root int) string { return r.d.url + "/map?root=" + strconv.Itoa(root) }

// postCold POSTs an item that must miss the cache and run the engine; the
// reply must verify. counted items record their engine work.
func (r *run) postCold(ctx context.Context, it *item, counted bool) (*reply, bool) {
	r.attempted.Add(1)
	rep, err := do(ctx, r.client, http.MethodPost, r.mapURL(it.root), contentTypeBinary, "", it.body)
	if err == nil {
		var w engineWork
		if w.ticks, w.msgs, err = checkCold(it, rep, false); err == nil && counted {
			r.mu.Lock()
			r.work[it] = w
			r.mu.Unlock()
		}
	}
	if err != nil {
		r.fail("POST "+it.name, err)
		return nil, false
	}
	return rep, true
}

// postUncached POSTs an item with nocache=1, so the daemon runs the engine
// whatever its cache holds; the reply must verify.
func (r *run) postUncached(ctx context.Context, it *item) (*reply, bool) {
	r.attempted.Add(1)
	rep, err := do(ctx, r.client, http.MethodPost, r.mapURL(it.root)+"&nocache=1", contentTypeBinary, "", it.body)
	if err == nil {
		err = checkUncached(it, rep)
	}
	if err != nil {
		r.fail("POST nocache "+it.name, err)
		return nil, false
	}
	return rep, true
}

// record maps items cold (JSON replies) over n clients and then reads each
// once as a tmr1 hit, keeping both replies as the reference bodies later hits
// must equal. Each cold latency goes to took when took is not nil.
func (r *run) record(ctx context.Context, n int, items []*item, counted bool, took func(it *item, us float64)) {
	each(n, items, func(c int, it *item) {
		rep, ok := r.postCold(ctx, it, counted)
		if !ok {
			return
		}
		if took != nil {
			took(it, us(rep.took))
		}
		r.attempted.Add(1)
		hit, err := do(ctx, r.client, http.MethodPost, r.mapURL(it.root), contentTypeBinary, contentTypeBinary, it.body)
		if err == nil {
			err = statusErr(hit)
		}
		if err == nil {
			err = wantHeader(hit, "X-Topomap-Cache", "hit")
		}
		if err == nil {
			var topo *graph.Graph
			var exact bool
			if topo, _, _, exact, err = decodeReply(hit.body, true); err == nil && (!exact || !topomap.Verify(it.g, it.root, topo)) {
				err = fmt.Errorf("tmr1 reconstruction of %s does not verify", it.name)
			}
		}
		if err != nil {
			r.fail("POST tmr1 "+it.name, err)
			return
		}
		r.mu.Lock()
		r.replies[it] = &[2][]byte{rep.body, hit.body}
		r.mu.Unlock()
	})
}

// postHit POSTs an item that must be served from the cache with the recorded
// reply.
func (r *run) postHit(ctx context.Context, it *item, bin bool, s *samples) bool {
	r.attempted.Add(1)
	r.mu.Lock()
	want := r.replies[it]
	r.mu.Unlock()
	if want == nil {
		r.fail("POST "+it.name, fmt.Errorf("no recorded reply"))
		return false
	}
	accept, k := "", 0
	if bin {
		accept, k = contentTypeBinary, 1
	}
	rep, err := do(ctx, r.client, http.MethodPost, r.mapURL(it.root), contentTypeBinary, accept, it.body)
	if err == nil {
		err = checkHit(rep, want[k], bin)
	}
	if err != nil {
		r.fail("hit "+it.name, err)
		return false
	}
	s.hit = append(s.hit, us(rep.took))
	return true
}

// chainState is a probe graph's position in its delta chain.
type chainState struct {
	step int // next PATCH step of the chain
	cur  *graph.Graph
	dig  graph.Digest
}

// patchStep sends one PATCH of a chain: the delta drawn against the current
// reconstruction, as text (JSON reply) on even steps and as a tmd1 frame
// (tmr1 reply) on odd ones. On success cur advances to the verified result.
func (r *run) patchStep(ctx context.Context, key string, cs *chainState, seed int64, s *samples) bool {
	r.attempted.Add(1)
	d, err := chainDelta(cs.cur, seed, cs.step)
	if err != nil {
		r.fail("delta "+key, err)
		return false
	}
	g1, err := d.ApplyClone(cs.cur)
	if err != nil {
		r.fail("delta "+key, err)
		return false
	}
	want, _, err := remap.Rebuild(g1, 0)
	if err != nil {
		r.fail("rebuild "+key, err)
		return false
	}
	wantDig := want.CanonicalDigest(0)
	bin := cs.step%2 == 1
	var rep *reply
	if bin {
		frame, ferr := graph.MarshalDeltaBinary(cs.dig, d)
		if ferr != nil {
			r.fail("delta "+key, ferr)
			return false
		}
		rep, err = do(ctx, r.client, http.MethodPatch, r.d.url+"/map", contentTypeBinary, contentTypeBinary, frame)
	} else {
		url := r.d.url + "/map?base=" + hex.EncodeToString(cs.dig[:])
		rep, err = do(ctx, r.client, http.MethodPatch, url, "text/plain", "", []byte(d.MarshalText()))
	}
	var path string
	if err == nil {
		path, err = checkPatch(rep, bin, want, wantDig)
	}
	if err != nil {
		r.fail("PATCH "+key, err)
		return false
	}
	s.patch = append(s.patch, us(rep.took))
	if key != "" {
		r.mu.Lock()
		r.paths[key] = path
		r.mu.Unlock()
	}
	cs.cur, cs.dig = want, wantDig
	cs.step++
	return true
}

// setupOnce starts a daemon and sends the workload's warm-up POSTs.
func (r *run) setupOnce(ctx context.Context) error {
	d, err := startDaemon(r.bin, r.client)
	if err != nil {
		return err
	}
	r.d = d
	switch r.workload {
	case "warm_zipf":
		r.record(ctx, clients, r.in.catalog, true, nil)
	default:
		each(clients, r.in.warmup, func(c int, it *item) { r.postCold(ctx, it, false) })
	}
	return nil
}

// setupPhase sets up five times and keeps the last daemon; setup_s is the
// median of the five.
func (r *run) setupPhase(ctx context.Context) error {
	const setups = 5
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := r.setupOnce(ctx); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		if r.failed.Load() > 0 {
			return fmt.Errorf("set-up failed: %v", r.errors())
		}
		if i < setups-1 {
			r.d.stop()
			r.d = nil
			r.client.CloseIdleConnections()
		}
	}
	return nil
}

// windowPhase drives the workload's traffic in a closed loop until the
// deadline; requests in flight at the deadline finish and count.
func (r *run) windowPhase(ctx context.Context, length time.Duration) {
	per := make([]samples, clients)
	var done atomic.Int64
	next := &r.next
	start := time.Now()
	deadline := start.Add(length)
	live := func() bool { return time.Now().Before(deadline) }
	switch r.workload {
	case "cold_mix":
		parallel(clients, func(c int) {
			for live() {
				i := int(next.Add(1) - 1)
				if i >= len(r.in.cold) {
					r.ranOut.Store(true)
					return
				}
				if rep, ok := r.postCold(ctx, r.in.cold[i], i < coldPrefix); ok {
					per[c].cold = append(per[c].cold, us(rep.took))
					done.Add(1)
				}
			}
		})
	case "warm_zipf":
		parallel(clients, func(c int) {
			for live() {
				i := int(next.Add(1) - 1)
				if i >= len(r.in.zipf) {
					r.ranOut.Store(true)
					return
				}
				if r.postHit(ctx, r.in.catalog[r.in.zipf[i]], i%2 == 1, &per[c]) {
					done.Add(1)
				}
			}
		})
	case "library_large":
		for live() {
			i := int(next.Add(1) - 1)
			if i >= len(r.in.library) {
				r.ranOut.Store(true)
				break
			}
			it := r.in.library[i]
			r.attempted.Add(1)
			t := time.Now()
			res, err := topomap.Map(it.g, topomap.Options{Root: it.root})
			took := time.Since(t)
			if err == nil && !topomap.Verify(it.g, it.root, res.Topology) {
				err = fmt.Errorf("reconstruction does not verify")
			}
			if err != nil {
				r.fail("Map "+it.name, err)
				continue
			}
			per[0].cold = append(per[0].cold, us(took))
			done.Add(1)
			if i < libraryPrefix {
				r.work[it] = engineWork{ticks: res.Ticks, msgs: res.Messages}
			}
		}
	}
	r.took += time.Since(start)
	r.done += int(done.Load())
	r.window.addSlice(per)
}

// completePrefix sends, untimed, whatever part of the counted prefix a slow
// window did not reach, so the work counters always cover the same runs.
func (r *run) completePrefix(ctx context.Context) {
	switch r.workload {
	case "cold_mix":
		for _, it := range r.in.cold[:coldPrefix] {
			if _, ok := r.work[it]; !ok {
				r.postCold(ctx, it, true)
			}
		}
	case "library_large":
		for _, it := range r.in.library[:libraryPrefix] {
			if _, ok := r.work[it]; ok {
				continue
			}
			r.attempted.Add(1)
			res, err := topomap.Map(it.g, topomap.Options{Root: it.root})
			if err != nil {
				r.fail("Map "+it.name, err)
				continue
			}
			r.work[it] = engineWork{ticks: res.Ticks, msgs: res.Messages}
		}
	}
}

// probePhase sends slice k of the fixed calibration traffic: cold POSTs of
// the slice's probe graphs, uncached runs of graphs from earlier and later
// slices, the slice's share of the hits on its graphs in both codecs, and a
// short delta chain on each of its graphs. It sends one request at a time:
// the probe measures what a request costs, and two clients beside the daemon
// on two cores would add their own queueing to every latency.
func (r *run) probePhase(ctx context.Context, k int) {
	n := len(r.in.probe.items) / windowSlices
	lo, hi := k*n, (k+1)*n
	items := r.in.probe.items[lo:hi]
	var s samples
	first := func(it *item, t float64) { r.probeRuns[lo+slices.Index(items, it)][0] = t }
	counted := max(0, min(len(items), probePrefix-lo))
	r.record(ctx, 1, items[:counted], true, first)
	r.record(ctx, 1, items[counted:], false, first)
	// Rerun j of the graphs whose cold POST is in slice h comes in slice
	// h + j·windowSlices/(probeReruns+1), wrapping around: a graph's runs
	// are spread over the whole run, and every slice maps graphs of three
	// parts of the probe's size order.
	for j := 1; j <= probeReruns; j++ {
		h := (k - j*windowSlices/(probeReruns+1) + windowSlices) % windowSlices
		for i := h * n; i < (h+1)*n; i++ {
			if rep, ok := r.postUncached(ctx, r.in.probe.items[i]); ok {
				r.probeRuns[i][j] = us(rep.took)
			}
		}
	}

	for i := 0; i < probeHits*len(items)/len(r.in.probe.items); i++ {
		r.postHit(ctx, items[i%len(items)], (i/len(items))%2 == 1, &s)
	}

	for i := lo; i < hi; i++ {
		it := r.in.probe.items[i]
		cur, _, err := remap.Rebuild(it.g, it.root)
		if err != nil {
			r.fail("probe rebuild "+it.name, err)
			continue
		}
		cs := &chainState{cur: cur, dig: it.dig}
		for cs.step < probeChainLen {
			key := ""
			if i < probePrefix {
				key = fmt.Sprintf("probe%d/%d", i, cs.step)
			}
			if !r.patchStep(ctx, key, cs, mix(probeChainSeed, int64(i)), &s) {
				break
			}
		}
	}
	r.probe.addSlice([]samples{s})
}

// counted sums the engine work and PATCH paths the traffic recorded.
func (r *run) counted() counters { return count(r.work, r.paths) }

func count(work map[*item]engineWork, paths map[string]string) counters {
	var k counters
	for _, w := range work {
		k.Runs++
		k.Ticks += int64(w.ticks)
		k.Messages += w.msgs
	}
	for _, p := range paths {
		if p == "full" {
			k.PatchFull++
		} else {
			k.PatchIncremental++
		}
	}
	return k
}

// errors returns the recorded failures in a stable order.
func (r *run) errors() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.errs...)
	sort.Strings(out)
	return out
}
