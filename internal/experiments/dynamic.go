package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"topomap"
	"topomap/internal/graph"
	"topomap/internal/remap"
)

// E21IncrementalRemap charts remap cost as a function of delta size across
// the ring/torus/er/ba families: the dynamic-network experiment behind
// Session.Remap and PATCH /map.
//
// Comparator discipline. What a serving tier would pay without the remap
// layer is a cold protocol run of the mutated network. That is measured
// directly at engine-feasible sizes (each family's small block); at the
// large sizes — including the headline ring-10^4 — a protocol run is
// infeasible, so those rows carry no engine figure and no speedup: nothing
// is extrapolated. Every row also shows the measured clone + plain
// structural rebuild (remap.Rebuild), the cost of remapping without the
// suffix cut. Correctness is checked on every row: the remapped
// reconstruction is graph.Equal to — and shares CanonicalDigest(0) with —
// its reference (the engine result where measured, the structural rebuild
// above that).
//
// Delta kinds per family: label-stable batches of 1/8/64 edge ops (chord
// inserts on families with free ports, crossed rewires of non-tree edges on
// port-saturated ones like the torus), a bounded-replay chord dirtying ~N/8
// labels, and a "deep" delta dirtying more than the 25% threshold — which
// Patch must refuse (remap.ErrTooDirty) and remap.Apply must serve by the
// full structural rebuild, counted.
func E21IncrementalRemap(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E21",
		Title: "Incremental remap vs full remap for dynamic networks",
		Claim: "perf: at engine-feasible sizes every remap, over-threshold deltas included, runs ≥10× under a measured engine run of the mutated network, bit-equal; single-edge deltas stay in the patch path up to ring-10^4; over-threshold deltas are served by the structural rebuild and counted",
		Columns: []string{"family", "n", "delta", "ops", "dirty", "path",
			"remap µs", "struct µs", "engine ms", "speedup", "equal"},
	}
	small := 48
	if s == Full {
		small = 96
	}
	families := []struct {
		name  string
		fam   graph.Family
		large int
	}{
		{"ring", graph.FamilyRing, 10_000},
		{"torus", graph.FamilyTorus, 10_000},
		{"er", graph.FamilyErdosRenyi, 4_096},
		{"ba", graph.FamilyBarabasiAlbert, 4_096},
	}

	sess := topomap.NewSession(topomap.Options{Workers: 1})
	defer sess.Close()

	fulls := 0
	for _, f := range families {
		if err := e21Block(t, sess, f.name, f.fam, small, []int{1}, &fulls); err != nil {
			return nil, fmt.Errorf("e21 %s/%d: %v", f.name, small, err)
		}
		if err := e21Block(t, nil, f.name, f.fam, f.large, []int{1, 8, 64}, &fulls); err != nil {
			return nil, fmt.Errorf("e21 %s/%d: %v", f.name, f.large, err)
		}
	}
	t.Notes = append(t.Notes,
		"remap µs: remap.Apply, the path Session.Remap and PATCH /map take — the suffix patch, or for an over-threshold delta the full structural rebuild (clone + model check + Rebuild); best of 16 after a warm-up",
		"struct µs: clone + remap.Rebuild of the mutated network, a plain rebuild without the suffix cut; best of 8",
		"engine ms: a measured cold protocol run of the mutated network (Workers=1, warm session) at the engine-feasible size; — above it, where a run is infeasible and no figure is extrapolated; speedup = engine / remap",
		"equal: the remapped reconstruction is graph.Equal to and shares CanonicalDigest(0) with the engine result where measured, the structural rebuild elsewhere; deep rows also check a forced suffix replay (MaxDirtyFrac 1) against it",
		fmt.Sprintf("over-threshold deltas (dirty > 25%% of N) were refused by the patch (remap.ErrTooDirty) and served by the full structural rebuild %d times (path full), with no engine run", fulls),
		"the ring-10000 ins×1 row is the single-edge headline: a patch of one chord on a network whose protocol run is infeasible")
	return t, nil
}

// e21Block emits one family's rows at one size: label-stable batches of each
// size in ks, a bounded-replay chord, and an over-threshold deep delta. With
// a session the base and every mutated network are mapped by the engine,
// which is both the reference and the timed comparator; without one (the
// large sizes) the structural rebuild is the reference and no engine time is
// reported.
func e21Block(t *Table, sess *topomap.Session, name string, fam graph.Family, size int, ks []int, fulls *int) error {
	g, err := graph.Build(fam, size, 1)
	if err != nil {
		return err
	}
	var recon *graph.Graph
	if sess != nil {
		res, err := sess.Map(g)
		if err != nil {
			return err
		}
		recon = res.Topology
	} else if recon, _, err = remap.Rebuild(g, 0); err != nil {
		return err
	}
	st, err := remap.Derive(recon)
	if err != nil {
		return err
	}
	n := recon.N()

	var deltas []*graph.Delta
	var labels []string
	add := func(d *graph.Delta, label string, err error) error {
		deltas, labels = append(deltas, d), append(labels, label)
		return err
	}
	for _, k := range ks {
		if err := add(e21StableDelta(recon, st, k)); err != nil {
			return err
		}
	}
	if err := add(e21RiskyDelta(recon, st, n-n/8, n-2, "chord")); err != nil {
		return err
	}
	if err := add(e21RiskyDelta(recon, st, 1, n/2, "deep")); err != nil {
		return err
	}

	for i, d := range deltas {
		g1, err := d.ApplyClone(recon)
		if err != nil {
			return err
		}
		engine := time.Duration(-1)
		var ref *graph.Graph
		if sess != nil {
			start := time.Now()
			res, err := sess.Map(g1)
			if err != nil {
				return err
			}
			engine, ref = time.Since(start), res.Topology
		} else if ref, _, err = remap.Rebuild(g1, 0); err != nil {
			return err
		}

		var rr *remap.Result
		remapT, err := e21Time(16, func() error {
			var err error
			rr, err = remap.Apply(recon, st, d)
			return err
		})
		if err != nil {
			return err
		}
		structT, err := e21Time(8, func() error {
			g2, err := d.ApplyClone(recon)
			if err != nil {
				return err
			}
			_, _, err = remap.Rebuild(g2, 0)
			return err
		})
		if err != nil {
			return err
		}

		equal := e21Equal(rr.Graph, ref)
		path := "stable"
		switch {
		case rr.Full:
			path = "full"
		case rr.Replayed:
			path = "replay"
		}
		if labels[i] == "deep" {
			if _, err := remap.Patch(recon, st, d, remap.Options{}); !errors.Is(err, remap.ErrTooDirty) || !rr.Full {
				return fmt.Errorf("deep delta did not take the full rebuild: %v", err)
			}
			*fulls++
			forced, err := remap.Patch(recon, st, d, remap.Options{MaxDirtyFrac: 1})
			if err != nil {
				return err
			}
			equal = equal && e21Equal(forced.Graph, ref)
		}
		e21Row(t, name, n, labels[i], len(d.Ops), rr.Dirty, path, remapT, structT, engine, equal)
	}
	return nil
}

// e21Row appends one measured row; a negative engine time means none was
// measured.
func e21Row(t *Table, name string, n int, label string, ops, dirty int, path string,
	remapT, structT, engine time.Duration, equal bool) {
	engineMS, speedup := "—", "—"
	if engine >= 0 {
		engineMS = e21Big(float64(engine.Nanoseconds()) / 1e6)
		speedup = e21Big(float64(engine) / float64(remapT))
	}
	eq := "yes"
	if !equal {
		eq = "NO"
	}
	t.Rows = append(t.Rows, []string{name, fmtI(n), label, fmtI(ops), fmtI(dirty), path,
		fmtF(float64(remapT.Nanoseconds()) / 1e3), fmtF(float64(structT.Nanoseconds()) / 1e3),
		engineMS, speedup, eq})
}

// e21Big formats values spanning microseconds to large speedups.
func e21Big(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.2e", v)
	}
	return fmtF(v)
}

// e21Time reports the best of iters runs of f, after one untimed warmup run
// (the first touch of a fresh reconstruction's arenas is not the steady state
// being measured).
func e21Time(iters int, f func() error) (time.Duration, error) {
	if err := f(); err != nil {
		return 0, err
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// e21Equal is the bit-equality oracle: same graph, same content address.
func e21Equal(a, b *graph.Graph) bool {
	da, db := a.CanonicalDigest(0), b.CanonicalDigest(0)
	return a.Equal(b) && da == db
}

// e21FreePort finds a port of v unwired in r and unused by the batch so far.
func e21FreePort(r *graph.Graph, used map[[2]int]bool, v int, out bool) int {
	for p := 1; p <= r.Delta(); p++ {
		if used[[2]int{v, p}] {
			continue
		}
		var wired bool
		if out {
			_, wired = r.OutEndpoint(v, p)
		} else {
			_, wired = r.InEndpoint(v, p)
		}
		if !wired {
			return p
		}
	}
	return 0
}

// e21StableDelta builds a label-stable batch of about k edge ops against the
// reconstruction r: chord inserts u→v with v discovered before u (free ports
// permitting), or — on port-saturated families like the torus — crossed
// rewires of non-tree edge pairs whose re-inserts both target earlier
// labels. The returned label is "ins×k" or "rw×k" with the actual op count.
func e21StableDelta(r *graph.Graph, st *remap.State, k int) (*graph.Delta, string, error) {
	n := r.N()
	usedOut, usedIn := map[[2]int]bool{}, map[[2]int]bool{}
	d := new(graph.Delta)
	ins := 0
	for from := n - 1; from >= 1 && ins < k; from-- {
		p := e21FreePort(r, usedOut, from, true)
		if p == 0 {
			continue
		}
		for to := 0; to < from; to++ {
			if q := e21FreePort(r, usedIn, to, false); q != 0 {
				d.Insert(from, p, to, q)
				usedOut[[2]int{from, p}] = true
				usedIn[[2]int{to, q}] = true
				ins++
				break
			}
		}
	}
	if ins > 0 {
		return d, fmt.Sprintf("ins×%d", ins), nil
	}

	// No free ports anywhere: cross non-tree edges. Deleting a non-tree edge
	// is label-stable, and sorting candidates by From−To descending makes
	// both re-inserts (a→d', c→b for pair a→b, c→d') target earlier labels.
	pool := e21NonTreeEdges(r, st)
	sort.Slice(pool, func(i, j int) bool {
		return pool[i].From-pool[i].To > pool[j].From-pool[j].To
	})
	var pairs [][2]graph.Edge
	build := func(pairs [][2]graph.Edge) *graph.Delta {
		d := new(graph.Delta)
		for _, pr := range pairs {
			e1, e2 := pr[0], pr[1]
			d.Delete(e1.From, e1.OutPort, e1.To, e1.InPort).
				Delete(e2.From, e2.OutPort, e2.To, e2.InPort).
				Insert(e1.From, e1.OutPort, e2.To, e2.InPort).
				Insert(e2.From, e2.OutPort, e1.To, e1.InPort)
		}
		return d
	}
	used := map[graph.Edge]bool{}
	for i := 0; i < len(pool) && len(pairs)*4 < k+3; i++ {
		e1 := pool[i]
		if used[e1] {
			continue
		}
		for j := i + 1; j < len(pool); j++ {
			e2 := pool[j]
			if used[e2] || e2.To >= e1.From || e1.To >= e2.From ||
				e1.From == e2.To || e2.From == e1.To {
				continue
			}
			cand := build(append(pairs, [2]graph.Edge{e1, e2}))
			g1, err := cand.ApplyClone(r)
			if err != nil || g1.Validate() != nil {
				continue // this crossing breaks the model; try another partner
			}
			pairs = append(pairs, [2]graph.Edge{e1, e2})
			used[e1], used[e2] = true, true
			break
		}
	}
	if len(pairs) == 0 {
		return nil, "", fmt.Errorf("no label-stable delta exists: no free ports and no crossable non-tree edges")
	}
	d = build(pairs)
	return d, fmt.Sprintf("rw×%d", len(d.Ops)), nil
}

// e21RiskyDelta builds a model-preserving delta whose replay cut falls in
// [lo, hi): a chord u→v with v discovered after u (cut u+1), or — when ports
// are saturated — a tree-edge rewire crossing the edge that discovered a
// child in the window with a non-tree edge (cut = the child's label).
func e21RiskyDelta(r *graph.Graph, st *remap.State, lo, hi int, label string) (*graph.Delta, string, error) {
	n := r.N()
	if lo < 1 {
		lo = 1
	}
	for from := lo - 1; from <= hi-2 && from < n-1; from++ {
		p := r.FreeOutPort(from)
		if p == 0 {
			continue
		}
		for to := from + 1; to < n; to++ {
			if q := r.FreeInPort(to); q != 0 {
				return new(graph.Delta).Insert(from, p, to, q), label, nil
			}
		}
	}

	pool := e21NonTreeEdges(r, st)
	for child := lo; child < hi && child < n; child++ {
		a, p1 := remap.Parent(st, child)
		if a < 0 {
			continue
		}
		ep, ok := r.OutEndpoint(a, p1)
		if !ok || ep.Node != child {
			return nil, "", fmt.Errorf("remap state disagrees with the reconstruction at node %d", child)
		}
		q1 := ep.Port
		for _, e2 := range pool {
			// Re-inserts a→e2.To and e2.From→child must not cut below lo.
			if e2.From == child || e2.To == a ||
				(e2.To >= a && a+1 < lo) || (child >= e2.From && e2.From+1 < lo) {
				continue
			}
			d := new(graph.Delta).Delete(a, p1, child, q1).
				Delete(e2.From, e2.OutPort, e2.To, e2.InPort).
				Insert(a, p1, e2.To, e2.InPort).
				Insert(e2.From, e2.OutPort, child, q1)
			g1, err := d.ApplyClone(r)
			if err != nil || g1.Validate() != nil {
				continue
			}
			return d, label, nil
		}
	}
	return nil, "", fmt.Errorf("no delta with a replay cut in [%d,%d) exists", lo, hi)
}

// e21NonTreeEdges lists the edges of r that did not discover their target —
// the label-stable deletion candidates.
func e21NonTreeEdges(r *graph.Graph, st *remap.State) []graph.Edge {
	var out []graph.Edge
	for _, e := range r.Edges() {
		if p, port := remap.Parent(st, e.To); p == e.From && port == e.OutPort {
			continue
		}
		out = append(out, e)
	}
	return out
}
