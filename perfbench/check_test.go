package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"

	"topomap"
	"topomap/internal/graph"
)

// mappedItem maps a small graph in-process, as the daemon would.
func mappedItem(t *testing.T) (*item, *topomap.Result) {
	t.Helper()
	it, err := newItem("er", 24, 1, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := topomap.Map(it.g, topomap.Options{Root: it.root})
	if err != nil {
		t.Fatal(err)
	}
	return it, res
}

// jsonReply renders a reply in the daemon's JSON shape.
func jsonReply(t *testing.T, topo *graph.Graph, ticks int, exact bool, elapsed int64) []byte {
	t.Helper()
	body, err := json.MarshalIndent(map[string]any{
		"n": topo.N(), "ticks": ticks, "messages": 1234, "exact": exact,
		"elapsed_ms": elapsed, "graph": topo.MarshalString(),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// tmr1Reply renders a reply in the daemon's binary result frame.
func tmr1Reply(t *testing.T, topo *graph.Graph, ticks int, elapsedUS uint64) []byte {
	t.Helper()
	g, err := topo.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, tmr1Header)
	copy(hdr, "tmr1")
	hdr[4], hdr[5] = 1, tmr1FlagExact|tmr1FlagGraph
	binary.LittleEndian.PutUint32(hdr[8:], uint32(topo.N()))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(ticks))
	binary.LittleEndian.PutUint64(hdr[tmr1Elapsed:], elapsedUS)
	binary.LittleEndian.PutUint64(hdr[48:], uint64(len(g)))
	return append(hdr, g...)
}

func served(status int, body []byte, headers ...string) *reply {
	h := http.Header{}
	for i := 0; i+1 < len(headers); i += 2 {
		h.Set(headers[i], headers[i+1])
	}
	return &reply{status: status, header: h, body: body}
}

// rewired returns g with the targets of two edges swapped: a valid graph
// with the same degrees that is not the reconstruction of the same network.
func rewired(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	h := g.Clone()
	es := h.Edges()
	a, b := es[0], es[len(es)/2]
	if _, err := h.Disconnect(a.From, a.OutPort); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Disconnect(b.From, b.OutPort); err != nil {
		t.Fatal(err)
	}
	h.MustConnect(a.From, a.OutPort, b.To, b.InPort)
	h.MustConnect(b.From, b.OutPort, a.To, a.InPort)
	return h
}

// TestGateFailsCorruptedColdReply: a correct cold reply passes, and every
// kind of corruption of it is reported.
func TestGateFailsCorruptedColdReply(t *testing.T) {
	it, res := mappedItem(t)
	dig := hex.EncodeToString(it.dig[:])
	good := jsonReply(t, res.Topology, res.Ticks, true, 7)
	if _, _, err := checkCold(it, served(200, good, "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig), false); err != nil {
		t.Fatalf("correct JSON reply rejected: %v", err)
	}
	bin := tmr1Reply(t, res.Topology, res.Ticks, 70)
	if ticks, _, err := checkCold(it, served(200, bin, "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig), true); err != nil || ticks != res.Ticks {
		t.Fatalf("correct tmr1 reply rejected (ticks %d): %v", ticks, err)
	}
	flipped := append([]byte(nil), bin...)
	flipped[len(flipped)-3] ^= 0x5a
	for name, rep := range map[string]*reply{
		"wrong topology": served(200, jsonReply(t, rewired(t, res.Topology), res.Ticks, true, 7), "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig),
		"inexact":        served(200, jsonReply(t, res.Topology, res.Ticks, false, 7), "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig),
		"served as hit":  served(200, good, "X-Topomap-Cache", "hit", "X-Topomap-Digest", dig),
		"wrong digest":   served(200, good, "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig[:62]+"00"),
		"error status":   served(500, good, "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig),
		"truncated JSON": served(200, good[:len(good)/2], "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig),
	} {
		if _, _, err := checkCold(it, rep, false); err == nil {
			t.Errorf("%s: corrupted reply passed the gate", name)
		}
	}
	if _, _, err := checkCold(it, served(200, flipped, "X-Topomap-Cache", "miss", "X-Topomap-Digest", dig), true); err == nil {
		t.Error("tmr1 reply with a flipped graph byte passed the gate")
	}
}

// TestGateFailsCorruptedUncachedReply: an uncached reply carries no cache
// state and no content address, and its reconstruction must verify.
func TestGateFailsCorruptedUncachedReply(t *testing.T) {
	it, res := mappedItem(t)
	good := jsonReply(t, res.Topology, res.Ticks, true, 7)
	if err := checkUncached(it, served(200, good)); err != nil {
		t.Fatalf("correct uncached reply rejected: %v", err)
	}
	for name, rep := range map[string]*reply{
		"wrong topology": served(200, jsonReply(t, rewired(t, res.Topology), res.Ticks, true, 7)),
		"inexact":        served(200, jsonReply(t, res.Topology, res.Ticks, false, 7)),
		"served as hit":  served(200, good, "X-Topomap-Cache", "hit"),
		"error status":   served(503, good),
	} {
		if err := checkUncached(it, rep); err == nil {
			t.Errorf("%s: corrupted reply passed the gate", name)
		}
	}
}

// TestGateFailsCorruptedHit: a hit may differ from the recorded reply only
// in its elapsed time.
func TestGateFailsCorruptedHit(t *testing.T) {
	_, res := mappedItem(t)
	for _, bin := range []bool{false, true} {
		var want, again, bad []byte
		if bin {
			want, again = tmr1Reply(t, res.Topology, res.Ticks, 11), tmr1Reply(t, res.Topology, res.Ticks, 99999)
			bad = tmr1Reply(t, res.Topology, res.Ticks+1, 11)
		} else {
			want, again = jsonReply(t, res.Topology, res.Ticks, true, 1), jsonReply(t, res.Topology, res.Ticks, true, 250)
			bad = bytes.Replace(want, []byte(`"exact": true`), []byte(`"exact": false`), 1)
		}
		if err := checkHit(served(200, again, "X-Topomap-Cache", "hit"), want, bin); err != nil {
			t.Errorf("bin=%v: hit differing only in elapsed time rejected: %v", bin, err)
		}
		if err := checkHit(served(200, bad, "X-Topomap-Cache", "hit"), want, bin); err == nil {
			t.Errorf("bin=%v: corrupted hit passed the gate", bin)
		}
		if err := checkHit(served(200, again, "X-Topomap-Cache", "miss"), want, bin); err == nil {
			t.Errorf("bin=%v: a miss passed as a hit", bin)
		}
	}
}

// TestGateFailsCorruptedPatch: a PATCH reply must carry exactly the rebuild
// of the post-delta network under its digest.
func TestGateFailsCorruptedPatch(t *testing.T) {
	_, res := mappedItem(t)
	want := res.Topology
	dig := want.CanonicalDigest(0)
	hexDig := hex.EncodeToString(dig[:])
	good := jsonReply(t, want, 0, true, 0)
	if path, err := checkPatch(served(200, good, "X-Topomap-Remap", "incremental", "X-Topomap-Digest", hexDig), false, want, dig); err != nil || path != "incremental" {
		t.Fatalf("correct PATCH reply rejected (path %q): %v", path, err)
	}
	if _, err := checkPatch(served(200, tmr1Reply(t, want, 0, 5), "X-Topomap-Remap", "full", "X-Topomap-Digest", hexDig), true, want, dig); err != nil {
		t.Fatalf("correct tmr1 PATCH reply rejected: %v", err)
	}
	for name, rep := range map[string]*reply{
		"wrong topology": served(200, jsonReply(t, rewired(t, want), 0, true, 0), "X-Topomap-Remap", "incremental", "X-Topomap-Digest", hexDig),
		"wrong digest":   served(200, good, "X-Topomap-Remap", "incremental", "X-Topomap-Digest", hexDig[:60]+"abcd"),
		"no remap path":  served(200, good, "X-Topomap-Digest", hexDig),
		"precondition":   served(412, good, "X-Topomap-Remap", "incremental", "X-Topomap-Digest", hexDig),
	} {
		if _, err := checkPatch(rep, false, want, dig); err == nil {
			t.Errorf("%s: corrupted PATCH reply passed the gate", name)
		}
	}
}

func TestStripElapsed(t *testing.T) {
	a := []byte("{\n  \"n\": 3,\n  \"elapsed_ms\": 120,\n  \"graph\": \"x\"\n}")
	b := []byte("{\n  \"n\": 3,\n  \"elapsed_ms\": 7,\n  \"graph\": \"x\"\n}")
	if !bytes.Equal(stripElapsed(a, false), stripElapsed(b, false)) {
		t.Error("JSON bodies differing only in elapsed_ms compare unequal")
	}
	if bytes.Equal(stripElapsed(a, false), stripElapsed(bytes.Replace(b, []byte(`"x"`), []byte(`"y"`), 1), false)) {
		t.Error("stripping elapsed_ms hid another difference")
	}
}
