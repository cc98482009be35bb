package main

import (
	"fmt"
	"math"
	"math/rand"

	"topomap/internal/graph"
)

// item is one network a workload sends: the graph, the root it is mapped
// from, its tmg1 request body and its content address (the canonical digest
// of the graph anchored at the root, which is also the digest of its
// reconstruction anchored at node 0).
type item struct {
	name string
	g    *graph.Graph
	root int
	body []byte
	dig  graph.Digest
}

func newItem(fam graph.Family, n int, seed int64, root int, wide bool) (*item, error) {
	g, err := build(fam, n, seed, wide)
	if err != nil {
		return nil, err
	}
	root %= g.N()
	body, err := g.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &item{
		name: fmt.Sprintf("%s-%d@%d/s%d", fam, g.N(), root, seed),
		g:    g, root: root, body: body, dig: g.CanonicalDigest(root),
	}, nil
}

// build is graph.Build, except that a torus takes its aspect ratio from the
// seed: Build's tori are near-square, which leaves only nine distinct ones
// between 32 and 96 nodes. Rows range over [side/2+1, side], or with wide
// over [3, side], for when the near-square shapes are used up.
func build(fam graph.Family, n int, seed int64, wide bool) (*graph.Graph, error) {
	if fam != "torus" {
		return graph.Build(fam, n, seed)
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	lo := side/2 + 1
	if wide {
		lo = 3
	}
	rows := lo + int(seed%int64(side-lo+1))
	return graph.Torus(rows, (n+rows-1)/rows), nil
}

// digestSet tracks the content addresses handed out in one run, so every
// item meant to miss the daemon's cache really does.
type digestSet map[graph.Digest]bool

// fresh builds the first variant of (fam, n, seed, root) whose digest is not
// in seen and records it. Variants move the root and the seed, and every 16
// attempts the size, which covers both vertex-transitive families (where only
// the shape tells members apart) and the rest. A second pass of 256 attempts
// admits skinny tori.
func (seen digestSet) fresh(fam graph.Family, n int, seed int64, root int) (*item, error) {
	for a := 0; a < 512; a++ {
		it, err := newItem(fam, n+a%256/16, seed+int64(a), root+a*37, a >= 256)
		if err != nil {
			return nil, err
		}
		if !seen[it.dig] {
			seen[it.dig] = true
			return it, nil
		}
	}
	return nil, fmt.Errorf("no fresh %s graph near n=%d", fam, n)
}

// golden spreads round r of a stratified size sequence over [lo, hi]: a
// per-family offset u plus r times the golden ratio, modulo one. The size
// schedule is the same for every seed (the seed picks the order, the roots
// and the random families' instances), so the cost mix of a run does not
// hinge on a few lucky draws.
func golden(u float64, r, lo, hi int) int {
	x := u + float64(r)*0.6180339887498949
	x -= float64(int(x))
	return lo + int(x*float64(hi-lo+1))
}

// inputs are every request body a run sends, generated from the seed before
// the daemon starts.
type inputs struct {
	warmup  []*item // set-up POSTs of cold_mix and library_large
	cold    []*item // cold_mix: distinct graphs, in request order
	catalog []*item // warm_zipf: the cached catalog
	zipf    []uint8 // warm_zipf: catalog index of each request
	library []*item // library_large: maps, in order
	probe   *probeSet
}

const (
	clients       = 2   // client connections = nproc of the reference box
	coldRounds    = 60  // cold_mix rounds of one graph per family
	catalogSize   = 8   // warm_zipf catalog entries
	zipfExponent  = 1.1 // warm_zipf skew
	zipfLen       = 1 << 21
	deltasPerStep = 2 // RandomDeltas steps merged into one PATCH
	libraryLen    = 90
)

var (
	// Size bands: Build rounds kautz sizes up to 48 or 96 (192 above 64) and
	// debruijn ones to 32 or 64 (128 above 64).
	coldFamilies = []sizeBand{
		{"ring", 32, 96}, {"torus", 32, 96}, {"kautz", 17, 64}, {"debruijn", 17, 64},
		{"er", 32, 96}, {"ba", 32, 96}, {"astier", 32, 96}, {"chordal", 32, 96},
	}
	// catalogFamilies give each family a band inside N ≈ 32–128 that keeps
	// the set-up's engine runs short.
	catalogFamilies = []sizeBand{
		{"er", 32, 96}, {"ba", 32, 96}, {"astier", 64, 128},
		{"torus", 64, 128}, {"kautz", 17, 64}, {"debruijn", 17, 64},
	}
	// libraryFamilies fix each family's size inside N ≈ 128–192 (kautz
	// rounds 128 up to 192).
	libraryFamilies = []sizeBand{
		{"kautz", 128, 128}, {"er", 128, 128}, {"torus", 128, 128},
		{"ba", 128, 128}, {"debruijn", 128, 128}, {"ring", 128, 128},
	}
)

// sizeBand is a family with the range its requested sizes are drawn from.
type sizeBand struct {
	fam    graph.Family
	lo, hi int
}

// makeInputs generates the inputs one workload needs, plus the probe every
// workload runs.
func makeInputs(workload string, seed int64) (*inputs, error) {
	in := &inputs{}
	seen := digestSet{}
	var err error
	if in.probe, err = makeProbe(seen); err != nil {
		return nil, err
	}
	add := func(dst *[]*item, fam graph.Family, n int, s int64, root int) error {
		it, err := seen.fresh(fam, n, s, root)
		if err == nil {
			*dst = append(*dst, it)
		}
		return err
	}
	switch workload {
	case "cold_mix", "library_large":
		// Bidirectional rings appear in no other input, so the set-up POSTs
		// never pre-cache a measured graph.
		for i, n := range []int{40, 44} {
			if err := add(&in.warmup, "biring", n, int64(i), 0); err != nil {
				return nil, err
			}
		}
	}
	switch workload {
	case "cold_mix":
		rng := rand.New(rand.NewSource(mix(seed, 1)))
		for r := 0; r < coldRounds; r++ {
			for _, f := range rng.Perm(len(coldFamilies)) {
				b := coldFamilies[f]
				n := golden(float64(f)/float64(len(coldFamilies)), r, b.lo, b.hi)
				if err := add(&in.cold, b.fam, n, mix(seed, 3, int64(r), int64(f)), rng.Intn(n)); err != nil {
					return nil, err
				}
			}
		}
	case "warm_zipf":
		for i := 0; i < catalogSize; i++ {
			f := i % len(catalogFamilies)
			b := catalogFamilies[f]
			n := golden(float64(f)/float64(len(catalogFamilies)), i/len(catalogFamilies), b.lo, b.hi)
			if err := add(&in.catalog, b.fam, n, mix(seed, 5, int64(i)), int(mix(seed, 6, int64(i))%int64(n))); err != nil {
				return nil, err
			}
		}
		z := newZipf(catalogSize, zipfExponent)
		rng := rand.New(rand.NewSource(mix(seed, 7)))
		in.zipf = make([]uint8, zipfLen)
		for i := range in.zipf {
			in.zipf[i] = uint8(z.draw(rng))
		}
	case "library_large":
		for i := 0; i < libraryLen; i++ {
			lf := libraryFamilies[i%len(libraryFamilies)]
			if err := add(&in.library, lf.fam, lf.lo, mix(seed, 10, int64(i)), 0); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// chainDelta draws the delta of step j of a chain against the current
// reconstruction: deltasPerStep consecutive graph.RandomDeltas steps merged
// into one batch, in the reconstruction's label space.
func chainDelta(cur *graph.Graph, seed int64, j int) (*graph.Delta, error) {
	ds, err := graph.RandomDeltas(cur, deltasPerStep, mix(seed, int64(j)))
	if err != nil {
		return nil, err
	}
	d := new(graph.Delta)
	for _, x := range ds {
		d.Ops = append(d.Ops, x.Ops...)
	}
	return d, nil
}

// probeSet is the fixed calibration traffic every workload sends after its
// window: small distinct graphs (N ≤ 28, below every workload's sizes) for
// cold POSTs, repeated POSTs of them for hits, and short delta chains on them
// for PATCHes. It does not depend on the seed, so its figures move only with
// the code and the machine.
type probeSet struct {
	items []*item
}

const (
	probeHits = 24000
	// probeReruns is how many times each probe graph is mapped again with
	// nocache=1 after its cold miss, so the probe's cold percentiles rest on
	// three samples per graph.
	probeReruns    = 2
	probeChainLen  = 3
	probeChainSeed = 0x70726f6265
	// probePrefix is how many probe graphs (with their hits and chains) the
	// work counters and the traced replay cover.
	probePrefix = 24
)

func makeProbe(seen digestSet) (*probeSet, error) {
	// A delta chain turns every other family's graph into one outside the
	// family, but only grows a ring. Ring sizes therefore fall along the
	// probe, which is sent in slices in order, so no chain reaches a ring
	// that a later slice or a window posts as cold (rings stay below 24 + 3
	// steps × 2 splices < 32). The other families' sizes rotate, so every
	// slice mixes large and small graphs.
	small := [8]int{28, 26, 24, 22, 21, 19, 17, 16}
	specs := []struct {
		fam   graph.Family
		sizes [8]int
	}{
		{"ring", [8]int{24, 23, 22, 21, 20, 19, 17, 16}}, {"chordal", small},
		{"torus", [8]int{24, 21, 20, 18, 16, 15, 14, 12}},
		{"kautz", [8]int{16, 16, 16, 16, 16, 16, 16, 16}},
		{"debruijn", [8]int{16, 16, 16, 16, 16, 16, 16, 16}},
		{"er", small}, {"ba", small}, {"astier", small},
	}
	p := &probeSet{}
	// Round-robin over the families, so any prefix of the probe mixes them.
	for j := range specs[0].sizes {
		for i, sp := range specs {
			n := sp.sizes[j]
			if sp.fam != "ring" {
				n = sp.sizes[(j+3*i)%len(sp.sizes)]
			}
			it, err := seen.fresh(sp.fam, n, int64(j+1), 5*j)
			if err != nil {
				return nil, err
			}
			if it.g.N() > 28 {
				return nil, fmt.Errorf("probe graph %s exceeds 28 nodes (spec %d)", it.name, i)
			}
			p.items = append(p.items, it)
		}
	}
	return p, nil
}
