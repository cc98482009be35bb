package topomap

import (
	"context"
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/remap"
	"topomap/internal/service"
)

// Delta is a batched, ordered mutation of a network: edge inserts and
// deletes plus node additions and removals. Build one with its chaining
// methods and hand it to Session.Remap:
//
//	d := new(topomap.Delta).Insert(3, 2, 17, 2).Delete(5, 1, 6, 1)
//
// Node ids are reconstruction labels — the namespace of the Result the delta
// patches, where node 0 is the root. See DESIGN.md §2.9 for the delta model.
type Delta = graph.Delta

// ParseDelta parses the one-line delta text form, e.g.
// "patch +3:2>17:2 -5:1>6:1 n+ n-12".
var ParseDelta = graph.UnmarshalDeltaString

// Digest is a graph's canonical content address (Graph.CanonicalDigest):
// isomorphic anchored graphs share it. Service.Remap names its base
// reconstruction by Digest.
type Digest = graph.Digest

// RemapKind classifies how a Service.Remap produced its result:
// RemapIncremental (suffix patch) or RemapFull (the dirty set exceeded the
// threshold and the whole reconstruction was rebuilt structurally). Neither
// runs the protocol.
type RemapKind = service.RemapKind

// Remap kinds.
const (
	RemapIncremental = service.RemapIncremental
	RemapFull        = service.RemapFull
)

// Service.Remap errors.
var (
	// ErrRemapNoCache reports a Remap on a service without a result cache.
	ErrRemapNoCache = service.ErrNoCache
	// ErrUnknownBase reports a Remap whose base digest is not (or no longer)
	// cached; the caller must fall back to submitting the full graph.
	ErrUnknownBase = service.ErrUnknownBase
)

// RemapResult is the outcome of Session.Remap: a Result for the mutated
// network plus how it was produced. No remap runs the protocol, so
// Ticks/Messages/Transactions are zero.
type RemapResult struct {
	Result
	// Incremental reports whether the suffix patch served the remap (false =
	// the delta dirtied over a quarter of the labels and the whole
	// reconstruction was rebuilt structurally).
	Incremental bool
	// Dirty is the number of node labels the remap had to replay.
	Dirty int
}

// Remap revalidates and patches a prior reconstruction under a delta instead
// of re-running the protocol; a delta that invalidates over a quarter of the
// labels is served by a full structural rebuild, still without the protocol.
// prev must be a Result (or RemapResult.Result) produced by this package;
// its Topology is not mutated. The returned reconstruction is bit-equal —
// same graph, same canonical digest — to what Map would return for the
// mutated network.
//
// The session memoizes the remap state of the last reconstruction it
// primed or patched, so chaining Remap calls (prev = the previous call's
// Result) stays in the fast path; remapping an arbitrary older Result works
// too and costs one state re-derivation.
func (s *Session) Remap(prev *Result, d *Delta) (*RemapResult, error) {
	if prev == nil || prev.Topology == nil {
		return nil, fmt.Errorf("topomap: remap: nil prior result")
	}
	var st *remap.State
	if s.remapTopo == prev.Topology {
		st = s.remapState
	}
	res, err := s.inner.Remap(prev.Topology, st, d)
	if err != nil {
		return nil, fmt.Errorf("topomap: %w", err)
	}
	s.remapTopo, s.remapState = res.Topology, res.State
	return &RemapResult{
		Result:      *newResult(&res.RunResult),
		Incremental: res.Incremental,
		Dirty:       res.Dirty,
	}, nil
}

// ServiceRemap is the outcome of Service.Remap: the post-delta cache entry
// plus how it was produced.
type ServiceRemap struct {
	// Cached is the post-delta entry, already resident in the service's
	// cache under Digest — a later Submit or Lookup of the mutated network
	// hits it with no remap at all.
	Cached *CachedResult
	// Digest is the post-delta reconstruction's content address, the base
	// for chaining further Remap calls.
	Digest Digest
	// Kind reports the serving path; Dirty is the number of labels the
	// remap replayed (the whole node count for RemapFull); Shared reports
	// that this call collapsed onto an identical remap already in flight.
	Kind   RemapKind
	Dirty  int
	Shared bool
}

// Remap patches a reconstruction the service has already cached, named by
// its content address (the canonical digest of the mapped graph anchored at
// its root), under a delta whose node ids live in that reconstruction's
// label space (node 0 = root). The result is bit-equal to mapping the
// mutated network from scratch, and no remap touches the engine: deltas
// that dirty over a quarter of the labels are rebuilt structurally instead
// of patched. Concurrent identical remaps collapse onto one patch. ErrUnknownBase means the base was evicted or never mapped —
// submit the full graph instead. cmd/topomapd serves PATCH /map through
// this method.
func (s *Service) Remap(ctx context.Context, base Digest, d *Delta) (*ServiceRemap, error) {
	out, err := s.pool.Remap(ctx, base, d)
	if err != nil {
		return nil, fmt.Errorf("topomap: %w", err)
	}
	return &ServiceRemap{
		Cached: &CachedResult{ent: out.Ent},
		Digest: out.Digest,
		Kind:   out.Kind,
		Dirty:  out.Dirty,
		Shared: out.Shared,
	}, nil
}
