package topomap_test

import (
	"testing"

	"topomap"
)

func TestSessionRemapChain(t *testing.T) {
	s := topomap.NewSession(topomap.Options{})
	defer s.Close()
	base := topomap.Ring(48)
	prev, err := s.Map(base)
	if err != nil {
		t.Fatal(err)
	}

	// A label-stable chord, then a risky one, chained: each result must be
	// bit-equal to a from-scratch map of the mutated network.
	deltas := []*topomap.Delta{
		new(topomap.Delta).Insert(30, 2, 10, 2),
		new(topomap.Delta).Insert(40, 2, 44, 2),
	}
	cur := prev
	for i, d := range deltas {
		rr, err := s.Remap(cur, d)
		if err != nil {
			t.Fatalf("remap %d: %v", i, err)
		}
		if !rr.Incremental {
			t.Fatalf("remap %d fell back unexpectedly (dirty %d)", i, rr.Dirty)
		}
		if rr.Ticks != 0 {
			t.Fatalf("incremental remap %d reports engine ticks", i)
		}
		mutated := d.MustApplyClone(cur.Topology)
		want, err := topomap.Map(mutated, topomap.Options{})
		if err != nil {
			t.Fatalf("reference map %d: %v", i, err)
		}
		if !rr.Topology.Equal(want.Topology) {
			t.Fatalf("remap %d != full map", i)
		}
		if rr.Topology.CanonicalDigest(0) != want.Topology.CanonicalDigest(0) {
			t.Fatalf("remap %d digest mismatch", i)
		}
		cur = &rr.Result
	}
}

func TestSessionRemapFallback(t *testing.T) {
	s := topomap.NewSession(topomap.Options{})
	defer s.Close()
	prev, err := s.Map(topomap.Ring(32))
	if err != nil {
		t.Fatal(err)
	}
	// Rewiring the root's tree edge dirties every label: the default
	// threshold forces the full structural rebuild, which runs no protocol.
	d := new(topomap.Delta).Delete(0, 1, 1, 1).Insert(0, 1, 1, 1)
	rr, err := s.Remap(prev, d)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Incremental || rr.Dirty != 32 {
		t.Fatalf("expected a full rebuild of 32 labels, got incremental=%v dirty=%d", rr.Incremental, rr.Dirty)
	}
	if rr.Ticks != 0 || rr.Messages != 0 || rr.Transactions != 0 {
		t.Fatalf("full rebuild reports protocol counters: %+v", rr.Result)
	}
	if !rr.Topology.Equal(prev.Topology) {
		t.Fatalf("identity rewire changed the reconstruction")
	}

	// Remapping from an older, non-memoized Result still works.
	d2 := new(topomap.Delta).Insert(20, 2, 5, 2)
	rr2, err := s.Remap(prev, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !rr2.Incremental {
		t.Fatalf("stable chord fell back")
	}
	want, err := topomap.Map(d2.MustApplyClone(prev.Topology), topomap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rr2.Topology.Equal(want.Topology) {
		t.Fatalf("remap from older result != full map")
	}
}
