package main

import (
	"testing"

	"topomap/internal/graph"
	"topomap/internal/remap"
)

func TestInputsSeeded(t *testing.T) {
	for _, w := range []string{"cold_mix", "warm_zipf", "library_large"} {
		a, err := makeInputs(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := makeInputs(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		c, err := makeInputs(w, 4)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		da, db, dc := digests(a), digests(b), digests(c)
		if len(da) != len(db) {
			t.Fatalf("%s: seed 3 gave %d then %d items", w, len(da), len(db))
		}
		seen := map[graph.Digest]bool{}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("%s: item %d differs between two generations of one seed", w, i)
			}
			if seen[da[i]] {
				t.Fatalf("%s: item %d repeats an earlier content address", w, i)
			}
			seen[da[i]] = true
		}
		if w != "library_large" && equalDigests(da, dc) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w)
		}
		// The probe is the same for every seed.
		if !equalDigests(digests(&inputs{probe: a.probe}), digests(&inputs{probe: c.probe})) {
			t.Errorf("%s: probe depends on the seed", w)
		}
	}
}

func digests(in *inputs) []graph.Digest {
	var out []graph.Digest
	add := func(items []*item) {
		for _, it := range items {
			out = append(out, it.dig)
		}
	}
	add(in.warmup)
	add(in.cold)
	add(in.catalog)
	add(in.library)
	add(in.probe.items)
	return out
}

func equalDigests(a, b []graph.Digest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInputSizes(t *testing.T) {
	in, err := makeInputs("cold_mix", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range in.cold {
		if n := it.g.N(); n < 32 || n > 105 {
			t.Errorf("cold_mix graph %s outside N ≈ 32–96", it.name)
		}
	}
	for _, it := range in.probe.items {
		if it.g.N() > 28 {
			t.Errorf("probe graph %s has more than 28 nodes", it.name)
		}
	}
	lib, err := makeInputs("library_large", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range lib.library {
		if n := it.g.N(); n < 128 || n > 192 {
			t.Errorf("library graph %s outside N ≈ 128–192", it.name)
		}
	}
}

// TestChainDeltaSeeded walks a probe graph's delta chain twice, past the
// probe's own length: each step's delta is a function of the current
// reconstruction, the chain seed and the step, it applies, and the rebuilt
// reconstruction is the next step's base.
func TestChainDeltaSeeded(t *testing.T) {
	in, err := makeInputs("cold_mix", 9)
	if err != nil {
		t.Fatal(err)
	}
	const i = 2
	it, seed := in.probe.items[i], mix(probeChainSeed, i)
	walk := func() []string {
		cur, _, err := remap.Rebuild(it.g, it.root)
		if err != nil {
			t.Fatal(err)
		}
		var texts []string
		for j := 0; j < 10; j++ {
			d, err := chainDelta(cur, seed, j)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Ops) < deltasPerStep {
				t.Fatalf("step %d merged %d ops from %d deltas", j, len(d.Ops), deltasPerStep)
			}
			g1, err := d.ApplyClone(cur)
			if err != nil {
				t.Fatalf("step %d: %v", j, err)
			}
			if !g1.StronglyConnected() {
				t.Fatalf("step %d broke strong connectivity", j)
			}
			if cur, _, err = remap.Rebuild(g1, 0); err != nil {
				t.Fatal(err)
			}
			texts = append(texts, d.MarshalText())
		}
		return texts
	}
	a, b := walk(), walk()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("step %d: %q then %q", j, a[j], b[j])
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Error("successive steps drew the same delta")
	}
}
