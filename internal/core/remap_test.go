package core

import (
	"reflect"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/remap"
)

// TestSessionRemapOverThreshold: a delta dirtying more than the default
// threshold is served by the full structural rebuild — no engine run, zero
// counters — and matches a protocol run of the mutated network bit for bit.
// A chained delta from the rebuilt result is patched incrementally again.
func TestSessionRemapOverThreshold(t *testing.T) {
	s := NewSession(Options{Workers: 1})
	defer s.Close()
	base, err := s.Prime(graph.Ring(32), 0)
	if err != nil {
		t.Fatal(err)
	}
	runs := s.Runs()

	// A chord from node 1 forward cuts the preorder at 2: 30 of 32 dirty.
	d := new(graph.Delta).Insert(1, 2, 5, 2)
	rr, err := s.Remap(base.Topology, base.State, d)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Incremental || rr.Dirty != 32 {
		t.Fatalf("incremental=%v dirty=%d, want a full rebuild of 32", rr.Incremental, rr.Dirty)
	}
	if s.Runs() != runs || rr.Stats.Ticks != 0 || rr.Transactions != 0 {
		t.Fatalf("over-threshold remap ran the engine (runs %d -> %d, ticks %d)", runs, s.Runs(), rr.Stats.Ticks)
	}
	mutated := d.MustApplyClone(base.Topology)
	want, err := s.RunRooted(mutated, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Topology.Equal(want.Topology) || rr.Topology.CanonicalDigest(0) != want.Topology.CanonicalDigest(0) {
		t.Fatal("rebuilt reconstruction != protocol run of the mutated network")
	}
	if wst, err := remap.Derive(want.Topology); err != nil || !reflect.DeepEqual(rr.State, wst) {
		t.Fatalf("rebuilt remap state differs from the derived one (%v)", err)
	}

	// Chaining from the rebuilt result: a label-stable chord patches in place.
	d2 := new(graph.Delta).Insert(20, 2, 3, 2)
	rr2, err := s.Remap(rr.Topology, rr.State, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !rr2.Incremental || rr2.Dirty != 0 {
		t.Fatalf("chained stable chord: incremental=%v dirty=%d", rr2.Incremental, rr2.Dirty)
	}

	// A model-breaking over-threshold delta is refused: the root still
	// reaches every node, but 20 and 21 form a sink cycle.
	bad := new(graph.Delta).Delete(21, 1, 22, 1).Insert(21, 1, 20, 2).Insert(19, 2, 22, 2)
	if _, err := s.Remap(base.Topology, base.State, bad); err == nil {
		t.Fatal("delta leaving nodes unable to reach the root accepted")
	}
}
