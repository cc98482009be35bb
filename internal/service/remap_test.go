package service

import (
	"context"
	"errors"
	"sync"
	"testing"

	"topomap/internal/cache"
	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/remap"
)

// TestPoolRemapIncremental: a delta against a cached base is served by the
// structural patch — bit-equal to a from-scratch engine run of the mutated
// network — and the post-delta entry becomes a first-class cache citizen
// that Lookup and chained Remaps hit.
func TestPoolRemapIncremental(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()
	ctx := context.Background()

	g := graph.Ring(32)
	j, err := p.Submit(ctx, g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	base := g.CanonicalDigest(0)
	prevTopo := j.Cached().Res.Topology

	// A label-stable chord in reconstruction space (to < from, free ports).
	d := new(graph.Delta).Insert(20, 2, 5, 2)
	out, err := p.Remap(ctx, base, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != RemapIncremental {
		t.Fatalf("kind %v, want incremental", out.Kind)
	}
	// Patch-produced entries carry no protocol counters; the Remapped flag
	// is what tells a later cache hit apart from a real run.
	if !out.Ent.Remapped {
		t.Fatal("patch-produced entry not marked Remapped")
	}
	if j.Cached().Remapped {
		t.Fatal("engine-produced entry marked Remapped")
	}

	// Reference: an uncached engine run of the mutated network.
	mutated, err := d.ApplyClone(prevTopo)
	if err != nil {
		t.Fatal(err)
	}
	root := 0
	rj, err := p.Submit(ctx, mutated, JobOptions{Root: &root, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := await(t, rj)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ent.Res.Topology.Equal(want.Topology) {
		t.Fatal("patched entry != full engine map of the mutated network")
	}
	if out.Digest != mutated.CanonicalDigest(0) {
		t.Fatal("outcome digest is not the post-delta content address")
	}

	// The patched entry is resident under the post-delta address.
	if ent := p.Lookup(mutated, 0); ent != out.Ent {
		t.Fatal("post-delta lookup does not hit the patched entry")
	}

	// Chaining: remap again from the post-delta digest.
	d2 := new(graph.Delta).Insert(25, 2, 9, 2)
	out2, err := p.Remap(ctx, out.Digest, d2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Kind != RemapIncremental {
		t.Fatalf("chained kind %v, want incremental", out2.Kind)
	}
	m2, err := d2.ApplyClone(out.Ent.Res.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Digest != m2.CanonicalDigest(0) {
		t.Fatal("chained remap digest mismatch")
	}

	if s := p.Stats(); s.RemapIncremental != 2 {
		t.Fatalf("RemapIncremental = %d, want 2", s.RemapIncremental)
	}
}

// TestPoolRemapFallback: a delta that dirties every label exceeds the
// default threshold, so the remap is a full structural rebuild — counted as
// RemapFull, run without the engine, and indistinguishable in result bits
// from an engine map of the mutated network.
func TestPoolRemapFallback(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()
	ctx := context.Background()

	g := graph.Ring(32)
	j, err := p.Submit(ctx, g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	prevTopo := j.Cached().Res.Topology
	served := p.Stats().Served

	// Rewiring the root's tree edge to a different in-port dirties the whole
	// suffix (tree-edge delete → t* = 1) and changes the network.
	d := new(graph.Delta).Delete(0, 1, 1, 1).Insert(0, 1, 1, 2)
	out, err := p.Remap(ctx, g.CanonicalDigest(0), d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != RemapFull {
		t.Fatalf("kind %v, want full", out.Kind)
	}
	if !out.Ent.Remapped {
		t.Fatal("rebuilt entry ran no protocol; must be marked Remapped")
	}
	if st := out.Ent.Res.Stats; st.Ticks != 0 || st.NonBlankMessages != 0 || out.Ent.Res.Transactions != 0 {
		t.Fatalf("rebuilt entry carries protocol counters: %+v", out.Ent.Res.Stats)
	}
	if !out.Ent.Exact {
		t.Fatal("rebuilt entry did not inherit the base's Exact verdict")
	}
	if out.Dirty != prevTopo.N() {
		t.Fatalf("full remap dirty %d, want %d", out.Dirty, prevTopo.N())
	}
	if s := p.Stats(); s.Served != served {
		t.Fatalf("full remap ran the engine (Served %d -> %d)", served, s.Served)
	}
	mutated, err := d.ApplyClone(prevTopo)
	if err != nil {
		t.Fatal(err)
	}
	root := 0
	rj, err := p.Submit(ctx, mutated, JobOptions{Root: &root, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := await(t, rj)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ent.Res.Topology.Equal(want.Topology) {
		t.Fatal("full remap result != full engine map of the mutated network")
	}
	if out.Digest != mutated.CanonicalDigest(0) {
		t.Fatal("full remap digest is not the post-delta content address")
	}
	if ent := p.Lookup(mutated, 0); ent != out.Ent {
		t.Fatal("post-delta lookup does not hit the rebuilt entry")
	}
	if s := p.Stats(); s.RemapFull != 1 || s.RemapIncremental != 0 {
		t.Fatalf("RemapFull = %d, RemapIncremental = %d, want 1, 0", s.RemapFull, s.RemapIncremental)
	}

	// A forced suffix replay of the same delta (threshold disabled) agrees
	// with the rebuild on graph and content address.
	st, err := j.Cached().remapState()
	if err != nil {
		t.Fatal(err)
	}
	forced, err := remap.Patch(prevTopo, st, d, remap.Options{MaxDirtyFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !forced.Graph.Equal(out.Ent.Res.Topology) || forced.Graph.CanonicalDigest(0) != out.Digest {
		t.Fatal("structural replay and full rebuild disagree")
	}
}

// TestPoolRemapFullRejectsUnreachableRoot: an over-threshold delta whose
// mutated graph the root still reaches everywhere, but where two nodes can
// no longer reach the root. Rebuild alone would accept it (it checks only
// reachability from the root); the full model check must reject it, and no
// entry may be cached.
func TestPoolRemapFullRejectsUnreachableRoot(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()
	ctx := context.Background()

	g := graph.Ring(32)
	j, err := p.Submit(ctx, g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	prevTopo := j.Cached().Res.Topology
	// Nodes 20 and 21 become a sink cycle (21 now points back to 20) and a
	// chord 19→22 keeps the rest reachable: every degree stays legal and the
	// root reaches every node, but 20 and 21 cannot reach the root. The chord
	// cuts the preorder at 20, so the dirty suffix (12 of 32) is over the
	// default threshold.
	d := new(graph.Delta).Delete(21, 1, 22, 1).Insert(21, 1, 20, 2).Insert(19, 2, 22, 2)
	st, err := j.Cached().remapState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remap.Patch(prevTopo, st, d, remap.Options{}); !errors.Is(err, remap.ErrTooDirty) {
		t.Fatalf("setup: delta is not over the threshold: %v", err)
	}
	mutated := d.MustApplyClone(prevTopo)
	if _, _, err := remap.Rebuild(mutated, 0); err != nil {
		t.Fatalf("setup: root should still reach every node: %v", err)
	}
	entries := p.Stats().CacheEntries

	if _, err := p.Remap(ctx, g.CanonicalDigest(0), d); err == nil {
		t.Fatal("delta leaving nodes unable to reach the root accepted")
	}
	s := p.Stats()
	if s.CacheEntries != entries || s.RemapFull != 0 {
		t.Fatalf("rejected delta touched the cache (%d -> %d entries) or was counted (full %d)",
			entries, s.CacheEntries, s.RemapFull)
	}
	if ent := p.Lookup(mutated, 0); ent != nil {
		t.Fatal("rejected delta left a cache entry behind")
	}
}

// TestPoolRemapDeepRing4096: a deep delta on a ring-4096 — an engine run of
// this size would take minutes — is served by the full structural rebuild
// with the engine untouched.
func TestPoolRemapDeepRing4096(t *testing.T) {
	p := New(Options{Size: 1, CacheBytes: 64 << 20, CacheShards: 1, Run: core.Options{Workers: 1}})
	defer p.Close()
	ctx := context.Background()

	// Seed the cache with the base the engine would have produced: by the
	// preorder theorem that is the structural rebuild of the ring.
	g := graph.Ring(4096)
	recon, _, err := remap.Rebuild(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := newCached(g, 0, &core.RunResult{Topology: recon})
	p.cache.Put(cache.Key{Digest: [cache.DigestSize]byte(g.CanonicalDigest(0)), Options: p.optFP}, base, base.cost())

	// A chord from node 1 forward cuts the preorder at 2: 4094 dirty labels.
	d := new(graph.Delta).Insert(1, 2, 5, 2)
	out, err := p.Remap(ctx, g.CanonicalDigest(0), d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != RemapFull || out.Dirty != 4096 {
		t.Fatalf("kind %v dirty %d, want full 4096", out.Kind, out.Dirty)
	}
	if s := p.Stats(); s.Served != 0 || s.RemapFull != 1 {
		t.Fatalf("deep remap: Served %d RemapFull %d, want 0 and 1", s.Served, s.RemapFull)
	}
	want, _, err := remap.Rebuild(d.MustApplyClone(recon), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ent.Res.Topology.Equal(want) || out.Digest != want.CanonicalDigest(0) {
		t.Fatal("deep remap != structural rebuild of the mutated ring")
	}
}

// TestPoolRemapErrors: unknown bases, cache-less pools, and model-breaking
// deltas are clean failures with the right counters.
func TestPoolRemapErrors(t *testing.T) {
	bare := New(Options{Size: 1, Run: core.Options{Workers: 1}})
	defer bare.Close()
	d := new(graph.Delta).Insert(1, 2, 0, 2)
	if _, err := bare.Remap(context.Background(), graph.Digest{}, d); !errors.Is(err, ErrNoCache) {
		t.Fatalf("cache-less remap: %v, want ErrNoCache", err)
	}

	p := cachedPool(1)
	defer p.Close()
	if _, err := p.Remap(context.Background(), graph.Digest{0xAB}, d); !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("unknown base: %v, want ErrUnknownBase", err)
	}
	if s := p.Stats(); s.RemapBaseMisses != 1 {
		t.Fatalf("RemapBaseMisses = %d, want 1", s.RemapBaseMisses)
	}

	g := graph.Ring(16)
	j, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	// Deleting a ring edge disconnects the cycle: the SC guard must reject.
	bad := new(graph.Delta).Delete(5, 1, 6, 1)
	if _, err := p.Remap(context.Background(), g.CanonicalDigest(0), bad); err == nil {
		t.Fatal("model-breaking delta accepted")
	}
	if _, err := p.Remap(context.Background(), g.CanonicalDigest(0), nil); err == nil {
		t.Fatal("nil delta accepted")
	}

	// A batch wiring its new nodes only among themselves adds a disconnected
	// island: legal per-node degrees, broken model. The structural patch must
	// reject it — and never cache an entry for the mutated digest.
	island := new(graph.Delta).AddNode().AddNode().
		Insert(16, 1, 17, 1).
		Insert(17, 1, 16, 1)
	if _, err := p.Remap(context.Background(), g.CanonicalDigest(0), island); err == nil {
		t.Fatal("disconnected island delta accepted")
	}
	mutated, err := island.ApplyClone(j.Cached().Res.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if ent := p.Lookup(mutated, 0); ent != nil {
		t.Fatal("rejected island delta left a cache entry behind")
	}
}

// TestPoolRemapFlightCollision: the 64-bit flight key only routes — a
// foreign flight squatting on this delta's key must not share its outcome.
// The join verifies the delta text and patches unshared on a mismatch.
func TestPoolRemapFlightCollision(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()
	ctx := context.Background()

	g := graph.Ring(24)
	j, err := p.Submit(ctx, g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	base := g.CanonicalDigest(0)
	d := new(graph.Delta).Insert(15, 2, 3, 2)

	// Squat a completed flight under d's exact key, carrying a different
	// delta's text and a poisoned outcome that sharing would expose.
	baseKey := cache.Key{Digest: [cache.DigestSize]byte(base), Options: p.optFP}
	k := remapFlightKey(baseKey, d.MarshalText())
	fl, leader := p.remapFlights.Join(k, func() *remapFlight {
		return &remapFlight{delta: "patch +9:9>9:9", done: make(chan struct{})}
	})
	if !leader {
		t.Fatal("setup: flight key already occupied")
	}
	fl.out = &RemapOutcome{}
	close(fl.done)
	defer p.remapFlights.Forget(k)

	out, err := p.Remap(ctx, base, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shared {
		t.Fatal("collided flight was shared")
	}
	mutated, err := d.ApplyClone(j.Cached().Res.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if out.Digest != mutated.CanonicalDigest(0) {
		t.Fatal("collision victim received the wrong result")
	}
}

// TestPoolRemapSingleflight: concurrent identical deltas against the same
// base collapse — every caller gets the same outcome, and the
// incremental+shared accounting covers all of them.
func TestPoolRemapSingleflight(t *testing.T) {
	p := cachedPool(2)
	defer p.Close()
	ctx := context.Background()

	g := graph.Ring(24)
	j, err := p.Submit(ctx, g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	base := g.CanonicalDigest(0)
	d := new(graph.Delta).Insert(15, 2, 3, 2)

	const callers = 8
	outs := make([]*RemapOutcome, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			outs[i], errs[i] = p.Remap(ctx, base, d)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if outs[i].Digest != outs[0].Digest {
			t.Fatalf("caller %d disagrees on the content address", i)
		}
	}
	s := p.Stats()
	if got := s.RemapIncremental + s.RemapShared; got != callers {
		t.Fatalf("incremental %d + shared %d = %d, want %d",
			s.RemapIncremental, s.RemapShared, got, callers)
	}
	if s.RemapIncremental < 1 {
		t.Fatal("no leader counted")
	}
}

// TestCacheStatsConcurrentLookupEviction: the satellite race test — Lookup,
// Submit-driven eviction churn, Remap, and Stats snapshots all concurrent.
// The assertions are invariants (counters monotone within a snapshot's view,
// rates bounded); the real check is the race detector over the cache stats
// plumbing.
func TestCacheStatsConcurrentLookupEviction(t *testing.T) {
	p := New(Options{
		Size:       2,
		QueueDepth: 64,
		// One shard with room for only a couple of the ~2 KiB ring entries
		// below, so the churn evicts constantly (the byte budget splits per
		// shard — spread over 16 shards it would make every entry oversized
		// and store nothing).
		CacheBytes:  5 << 10,
		CacheShards: 1,
		Run:         core.Options{Workers: 1},
	})
	defer p.Close()
	ctx := context.Background()

	sizes := []int{8, 10, 12, 14, 16, 18}
	graphs := make([]*graph.Graph, len(sizes))
	for i, n := range sizes {
		graphs[i] = graph.Ring(n)
	}
	// Prime one base for the remap goroutine.
	j, err := p.Submit(ctx, graphs[0], JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	base := graphs[0].CanonicalDigest(0)
	d := new(graph.Delta).Insert(5, 2, 2, 2)

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // eviction churn: distinct graphs through the submit path
		defer wg.Done()
		// Each graph is submitted twice back-to-back: the repeat hits the
		// just-inserted entry even while the wider cycle evicts (a pure
		// cycle through more graphs than fit would thrash LRU to zero hits).
		for i := 0; i < rounds; i++ {
			j, err := p.Submit(ctx, graphs[(i/2)%len(graphs)], JobOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			j.Await(ctx)
		}
	}()
	go func() { // zero-copy lookups racing the churn
		defer wg.Done()
		for i := 0; i < 4*rounds; i++ {
			p.Lookup(graphs[(i*7)%len(graphs)], 0)
		}
	}()
	go func() { // remaps racing eviction of their own base
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := p.Remap(ctx, base, d); err != nil && !errors.Is(err, ErrUnknownBase) {
				t.Errorf("remap: %v", err)
				return
			}
		}
	}()
	go func() { // stats snapshots racing everything
		defer wg.Done()
		for i := 0; i < 4*rounds; i++ {
			s := p.Stats()
			if s.CacheEntries < 0 || s.CacheBytes < 0 {
				t.Errorf("negative cache accounting: %+v", s)
				return
			}
			if s.CacheHitRate < 0 || s.CacheHitRate > 1 {
				t.Errorf("hit rate %v out of range", s.CacheHitRate)
				return
			}
		}
	}()
	wg.Wait()

	s := p.Stats()
	if s.CacheEvictions == 0 {
		t.Fatal("churn produced no evictions; shrink CacheBytes")
	}
	if s.CacheHits == 0 {
		t.Fatal("no cache hits under churn")
	}
}
