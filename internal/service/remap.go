package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"topomap/internal/cache"
	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/remap"
)

// Errors returned by Remap.
var (
	// ErrNoCache reports a Remap on a pool without a result cache: the
	// delta-patching tier is an extension of content addressing and has no
	// meaning without it.
	ErrNoCache = errors.New("service: remap requires the result cache")
	// ErrUnknownBase reports a Remap whose base digest is not (or no longer)
	// in the cache — evicted, never mapped, or mapped under different run
	// options. The caller must fall back to submitting the full graph.
	ErrUnknownBase = errors.New("service: base reconstruction not cached")
)

// RemapKind classifies how a Remap produced its result.
type RemapKind int32

const (
	// RemapIncremental: the suffix patch served the remap.
	RemapIncremental RemapKind = iota
	// RemapFull: the delta's dirty set exceeded the threshold and a full
	// structural rebuild of the mutated graph served the remap instead.
	// Neither kind runs the engine.
	RemapFull
)

// String renders the kind as the daemon's X-Topomap-Remap header value.
func (k RemapKind) String() string {
	if k == RemapFull {
		return "full"
	}
	return "incremental"
}

// RemapOutcome is the result of a Pool.Remap: the post-delta cache entry
// (pre-encoded wire bytes included, stored under the post-delta content
// address) plus how it was produced.
type RemapOutcome struct {
	// Ent is the post-delta entry, already resident in the cache: a later
	// Submit or Lookup of the mutated network hits it without any remap.
	Ent *Cached
	// Digest is the entry's content address — the canonical digest of the
	// post-delta reconstruction anchored at its root.
	Digest graph.Digest
	// Kind reports the serving path; Dirty is the number of labels the remap
	// replayed (the whole node count for RemapFull).
	Kind  RemapKind
	Dirty int
	// Shared reports that this call collapsed onto an identical remap
	// already in flight and shares its outcome.
	Shared bool
}

// remapFlight is one in-progress remap that concurrent identical requests
// (same base digest, same delta) share: the leader patches once, everyone
// reads the recorded outcome. delta is the leader's marshaled delta text,
// checked on every join — the flight key's 64-bit hash is not
// collision-proof, and a follower must never inherit a different delta's
// result.
type remapFlight struct {
	delta string
	done  chan struct{}
	out   *RemapOutcome
	err   error
}

// Remap patches a cached reconstruction under a delta: the request names its
// base by content address (the canonical digest a prior Submit/Lookup
// returned) and the delta's node ids live in that reconstruction's label
// space (node 0 = root). On success the post-delta entry is resident in the
// cache under its own content address and returned with its pre-encoded wire
// bytes — the PATCH serving path of cmd/topomapd.
//
// No remap touches the engine or the job queue: a delta whose dirty set
// stays under the threshold is patched structurally, a dirtier one is
// rebuilt structurally (remap.Apply). Concurrent Remaps with the same base
// and delta collapse onto one patch. The result is bit-equal to a
// from-scratch map of the mutated network either way. ctx bounds only the
// wait of a caller that joins a remap already in flight.
func (p *Pool) Remap(ctx context.Context, base graph.Digest, d *graph.Delta) (*RemapOutcome, error) {
	if p.cache == nil {
		return nil, ErrNoCache
	}
	if d == nil {
		return nil, errors.New("service: nil delta")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	baseKey := cache.Key{Digest: [cache.DigestSize]byte(base), Options: p.optFP}
	ent, ok := p.cache.Get(baseKey)
	if !ok {
		p.stats.remapBaseMiss.add(1)
		return nil, fmt.Errorf("%w: %x", ErrUnknownBase, base[:8])
	}

	dtext := d.MarshalText()
	flightKey := remapFlightKey(baseKey, dtext)
	fl, leader := p.remapFlights.Join(flightKey, func() *remapFlight {
		return &remapFlight{delta: dtext, done: make(chan struct{})}
	})
	if !leader {
		if fl.delta != dtext {
			// 64-bit flight-key collision between two different deltas:
			// sharing would hand this caller the other delta's result. Patch
			// unshared instead — correctness over collapse.
			return p.remapLead(ent, d)
		}
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			return nil, fl.err
		}
		out := *fl.out
		out.Shared = true
		p.stats.remapShared.add(1)
		return &out, nil
	}
	out, err := p.remapLead(ent, d)
	fl.out, fl.err = out, err
	p.remapFlights.Forget(flightKey)
	close(fl.done)
	return out, err
}

// remapLead does the leader's work: derive (or reuse) the base entry's remap
// state, remap structurally (remap.Apply), and cache the result under its
// post-delta content address. No path reaches the engine.
func (p *Pool) remapLead(ent *Cached, d *graph.Delta) (*RemapOutcome, error) {
	st, err := ent.remapState()
	if err != nil {
		return nil, fmt.Errorf("service: remap state of cached entry: %w", err)
	}
	res, err := remap.Apply(ent.Res.Topology, st, d)
	if err != nil {
		return nil, err
	}
	post := res.Graph.CanonicalDigest(0)
	postKey := cache.Key{Digest: [cache.DigestSize]byte(post), Options: p.optFP}
	ent2, ok := p.cache.Get(postKey)
	if !ok {
		// The remapped reconstruction is bit-identical to what a full map of
		// the mutated network returns (the remap layer's pinned equivalence),
		// so the entry is a first-class cache citizen: a later POST of an
		// isomorphic graph hits it. Exactness is inherited — the delta's
		// truth is the base reconstruction itself, and the remap preserves
		// the isomorphism class.
		ent2 = &Cached{
			Res:      &core.RunResult{Topology: res.Graph},
			Text:     res.Graph.MarshalString(),
			Exact:    ent.Exact,
			Edges:    res.Graph.NumEdges(),
			Remapped: true,
		}
		if bin, err := res.Graph.MarshalBinary(); err == nil {
			ent2.Bin = bin
		}
		ent2.st.Store(res.State)
		p.cache.Put(postKey, ent2, ent2.cost())
	}
	kind := RemapIncremental
	if res.Full {
		kind = RemapFull
		p.stats.remapFull.add(1)
	} else {
		p.stats.remapInc.add(1)
	}
	return &RemapOutcome{Ent: ent2, Digest: post, Kind: kind, Dirty: res.Dirty}, nil
}

// remapFlightKey addresses a remap flight: the base entry's cache key with
// the options half replaced by a hash of (options, delta text), so identical
// concurrent deltas against the same base collapse. The 64-bit hash only
// routes — Remap confirms the delta text on every join and patches unshared
// on a mismatch, so a collision can never serve the wrong delta's result.
func remapFlightKey(baseKey cache.Key, deltaText string) cache.Key {
	h := fnv.New64a()
	var opts [8]byte
	for i := range opts {
		opts[i] = byte(baseKey.Options >> (8 * i))
	}
	h.Write(opts[:])
	h.Write([]byte(deltaText))
	return cache.Key{Digest: baseKey.Digest, Options: h.Sum64()}
}
