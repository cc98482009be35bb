package core

import (
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/remap"
)

// RemapResult is the outcome of a structural remap: the post-delta
// reconstruction plus how it was produced. No protocol runs, so Stats and
// Transactions are zero.
type RemapResult struct {
	RunResult
	// Incremental reports whether the suffix patch served the remap. False
	// means the dirty set exceeded the threshold and the whole
	// reconstruction was rebuilt structurally.
	Incremental bool
	// Dirty is the number of preorder labels the patch replayed (0 for a
	// label-stable delta); for a full rebuild it is the whole node count.
	Dirty int
	// State is Topology's remap state, to chain further Remap calls
	// without a re-derivation. Treat it as immutable.
	State *remap.State
}

// Prime runs the full protocol on (g, root) and derives the remap state of
// the reconstruction: the entry point of a remap chain.
func (s *Session) Prime(g *graph.Graph, root int) (*RemapResult, error) {
	rr, err := s.run(nil, g, root)
	if err != nil {
		return nil, err
	}
	st, err := remap.Derive(rr.Topology)
	if err != nil {
		return nil, fmt.Errorf("core: remap state of fresh reconstruction: %w", err)
	}
	return &RemapResult{RunResult: *rr, State: st}, nil
}

// Remap remaps the prior reconstruction prevTopo (with its remap state st;
// nil derives it on the spot) under the delta d, whose node ids live in
// reconstruction label space (node 0 = root), without running the protocol
// (remap.Apply): a delta whose dirty set stays under the threshold is
// patched in (sub-)linear time, a dirtier one is rebuilt structurally in
// O(N+E). Either way the result is bit-equal to a from-scratch map of the
// mutated network — the equivalence the remap layer's tests pin across
// families, seeds, worker counts, and scheduler policies. prevTopo is never
// mutated.
func (s *Session) Remap(prevTopo *graph.Graph, st *remap.State, d *graph.Delta) (*RemapResult, error) {
	if st == nil {
		var err error
		if st, err = remap.Derive(prevTopo); err != nil {
			return nil, fmt.Errorf("core: remap: %w", err)
		}
	}
	res, err := remap.Apply(prevTopo, st, d)
	if err != nil {
		return nil, err
	}
	return &RemapResult{
		RunResult:   RunResult{Topology: res.Graph},
		Incremental: !res.Full,
		Dirty:       res.Dirty,
		State:       res.State,
	}, nil
}
