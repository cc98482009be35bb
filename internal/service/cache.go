package service

import (
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"topomap/internal/cache"
	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/remap"
)

// atomicRemapState names the Cached state memo's type, keeping the struct
// declaration readable.
type atomicRemapState = atomic.Pointer[remap.State]

// CacheState classifies how a submitted job met the result cache.
type CacheState int32

const (
	// CacheNone: the cache was disabled, bypassed (NoCache), or the
	// request was not addressable (root out of range).
	CacheNone CacheState = iota
	// CacheHit: the result was served from the cache; no engine ran.
	CacheHit
	// CacheMiss: this job started the engine run that will (on success)
	// populate the cache.
	CacheMiss
	// CacheShared: the job attached to an identical run already in flight
	// and shares its outcome; no second engine run was queued.
	CacheShared
)

// String renders the state as the daemon's X-Topomap-Cache header value
// ("" for CacheNone).
func (s CacheState) String() string {
	switch s {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheShared:
		return "shared"
	}
	return ""
}

// optionsFingerprint hashes every run option that can influence a job's
// observable outcome — result bits or statistics — into the cache key's
// options half. The engine's determinism guarantee makes results invariant
// in Workers and Sched, but RunResult.Stats carries scheduler telemetry
// (SeqTicks/ParTicks/Bursts) that is not, so the fingerprint is
// conservative: any difference in MaxTicks, validation, worker count,
// substrate, policy, protocol speeds, or fault plan isolates the entry.
// The root is deliberately absent — it is anchored inside the canonical
// digest, which is the whole point of content addressing (isomorphic
// requests share).
func optionsFingerprint(o core.Options) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 128)
	u64 := func(v uint64) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	i := func(v int) { u64(uint64(int64(v))) }
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	i(o.MaxTicks)
	b(o.Validate)
	i(o.Workers)
	b(o.Dense)
	i(int(o.Sched))
	i(o.SeqThreshold)
	if o.Config == nil {
		u64(0)
	} else {
		u64(1)
		i(o.Config.SnakeDelay)
		i(o.Config.LoopDelay)
		i(o.Config.UnmarkDelay)
		i(o.Config.KillDelay)
		b(o.Config.PassiveRoot)
	}
	if o.Faults == nil {
		u64(0)
	} else {
		u64(1)
		u64(uint64(o.Faults.Seed))
		u64(math.Float64bits(o.Faults.DropRate))
		i(len(o.Faults.Crashes))
		for _, c := range o.Faults.Crashes {
			i(c.Node)
			i(c.Tick)
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// Cached is one result-cache entry: the decoded run result plus both wire
// encodings of the reconstructed topology, computed once when the entry is
// populated. A cache hit serves the pre-encoded bytes as-is — no re-encode,
// no re-verify — so the hit path's cost is the lookup itself. Every field is
// immutable after construction and the entry is shared by all hits on its
// key; callers must treat Text and Bin as read-only.
type Cached struct {
	// Res is the decoded run result (topology + protocol counters).
	Res *core.RunResult
	// Text is the topology in the plain-text codec (graph.Marshal); Bin is
	// the same topology in the binary codec. Bin is nil only when the
	// topology exceeds the binary codec's node bound (impossible for any
	// graph that itself arrived through either codec's decode limit).
	Text string
	Bin  []byte
	// Exact records whether the reconstruction is isomorphic to the input
	// truth anchored at the run's root. The cache key is the anchored
	// canonical digest plus the options fingerprint, so the verdict is
	// identical for every request that can hit this entry — verification,
	// an O(N) canonical-form walk, leaves the hit path entirely.
	Exact bool
	// Edges is the topology's wired-edge count.
	Edges int
	// Remapped records that this entry was produced by a structural remap
	// (Pool.Remap) rather than an engine run: its topology is bit-equal to a
	// full map's, but Res carries no protocol counters — Ticks, Messages,
	// and Transactions are zero. Surfaced to clients so a cache hit on a
	// patch-produced entry is distinguishable from a real run.
	Remapped bool

	// st memoizes the entry's remap state (the DFS tree behind its labels),
	// derived lazily by the first Remap against this entry and pre-filled
	// for entries a patch produced. Racing derivations compute identical
	// states (the derivation is deterministic), so a plain last-wins store
	// is safe. The only mutable field; everything above stays immutable.
	st atomicRemapState
}

// remapState returns the entry's memoized remap state, deriving it on first
// use. Derivation fails only if Res.Topology is not in reconstruction form,
// which no engine- or patch-produced entry is.
func (c *Cached) remapState() (*remap.State, error) {
	if st := c.st.Load(); st != nil {
		return st, nil
	}
	st, err := remap.Derive(c.Res.Topology)
	if err != nil {
		return nil, err
	}
	c.st.Store(st)
	return st, nil
}

// newCached builds the entry for a successful flight: encode both wire forms
// and verify the reconstruction once, against the flight's input graph.
func newCached(g *graph.Graph, root int, res *core.RunResult) *Cached {
	ent := &Cached{
		Res:   res,
		Text:  res.Topology.MarshalString(),
		Exact: g.IsomorphicFrom(root, res.Topology, 0),
		Edges: res.Topology.NumEdges(),
	}
	if bin, err := res.Topology.MarshalBinary(); err == nil {
		ent.Bin = bin
	}
	return ent
}

// cost is the entry's byte accounting, in the MemInfo capacity-arithmetic
// discipline: the reconstruction graph's flat endpoint table (2 sides × n×δ
// endpoints × 16 B) plus its per-node slice headers (2 × 24 B), both
// pre-encoded forms, and a fixed allowance for the Graph/RunResult/Stats
// structs and the LRU's own bookkeeping.
func (c *Cached) cost() int64 {
	const entryOverhead = 512
	if c == nil || c.Res == nil || c.Res.Topology == nil {
		return entryOverhead
	}
	n, d := int64(c.Res.Topology.N()), int64(c.Res.Topology.Delta())
	return 2*n*d*16 + 2*n*24 + int64(len(c.Text)) + int64(len(c.Bin)) + entryOverhead
}

// flight is one in-progress engine run that any number of identical
// requests share: the leader's Submit enqueues a single internal job, and
// every requester (leader included) becomes a waiter completed by the
// internal job's broadcast. Progress events from the run fan out to every
// waiter sink; a waiter cancelling detaches only itself.
type flight struct {
	key cache.Key

	mu      sync.Mutex
	closed  bool
	waiters []*Job
	ent     *Cached
	res     *core.RunResult
	err     error
}

// attach registers a waiter for the flight's broadcast. It reports false if
// the flight has already completed — the caller must then serve the flight's
// recorded outcome itself (the late-joiner race window between Group.Join
// and the leader's Forget).
func (fl *flight) attach(j *Job) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return false
	}
	fl.waiters = append(fl.waiters, j)
	return true
}

// completeAll records the outcome, closes the flight, and returns the
// waiters to broadcast to. Called exactly once, by the internal job's
// completion hook, after the key has been Forgotten. ent is the cache entry
// built from a successful run (nil on failure), so every waiter shares the
// pre-encoded bytes.
func (fl *flight) completeAll(ent *Cached, res *core.RunResult, err error) []*Job {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.closed = true
	fl.ent, fl.res, fl.err = ent, res, err
	ws := fl.waiters
	fl.waiters = nil
	return ws
}

// fanProgress delivers one progress event to every waiter sink registered
// at this instant. Runs on the serving goroutine (like any progress sink);
// waiter sinks must not block, per the JobOptions.Progress contract.
func (fl *flight) fanProgress(p Progress) {
	fl.mu.Lock()
	ws := make([]*Job, len(fl.waiters))
	copy(ws, fl.waiters)
	fl.mu.Unlock()
	for _, w := range ws {
		if w.progress != nil {
			w.progress(p)
		}
	}
}

// cacheKey derives the content address of a request: the canonical digest
// of the graph anchored at the effective root, plus the pool's options
// fingerprint. ok is false when the request is not addressable (root out of
// range — the run will fail with a proper error; the cache stays out of the
// way).
func (p *Pool) cacheKey(g *graph.Graph, root int) (cache.Key, bool) {
	if root < 0 || root >= g.N() {
		return cache.Key{}, false
	}
	return cache.Key{Digest: [cache.DigestSize]byte(g.CanonicalDigest(root)), Options: p.optFP}, true
}
