package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"

	"topomap"
	"topomap/internal/graph"
)

const contentTypeBinary = "application/x-topomap"

// mapReply is the part of a POST or PATCH /map JSON reply the checks read.
type mapReply struct {
	Ticks    int    `json:"ticks"`
	Messages int64  `json:"messages"`
	Exact    bool   `json:"exact"`
	Graph    string `json:"graph"`
}

// tmr1 header layout (DESIGN.md §2.8): magic, version, flags, δ, n, edges,
// root, ticks, messages, transactions, elapsed_us, graphlen, then the graph.
const (
	tmr1Header    = 56
	tmr1Elapsed   = 40
	tmr1FlagExact = 1
	tmr1FlagGraph = 2
)

// decodeReply returns the reconstruction, ticks, messages and exact flag of
// a JSON or tmr1 map reply.
func decodeReply(body []byte, bin bool) (topo *graph.Graph, ticks int, msgs int64, exact bool, err error) {
	if !bin {
		var r mapReply
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, 0, 0, false, fmt.Errorf("decode JSON reply: %w", err)
		}
		g, err := graph.UnmarshalString(r.Graph)
		if err != nil {
			return nil, 0, 0, false, fmt.Errorf("decode reply graph: %w", err)
		}
		return g, r.Ticks, r.Messages, r.Exact, nil
	}
	if len(body) < tmr1Header || string(body[:4]) != "tmr1" {
		return nil, 0, 0, false, errors.New("not a tmr1 frame")
	}
	if body[5]&tmr1FlagGraph == 0 {
		return nil, 0, 0, false, errors.New("tmr1 frame without a graph")
	}
	glen := binary.LittleEndian.Uint64(body[48:])
	if uint64(len(body)-tmr1Header) != glen {
		return nil, 0, 0, false, fmt.Errorf("tmr1 frame declares %d graph bytes, carries %d", glen, len(body)-tmr1Header)
	}
	g, err := graph.UnmarshalBinary(body[tmr1Header:])
	if err != nil {
		return nil, 0, 0, false, fmt.Errorf("decode tmr1 graph: %w", err)
	}
	ticks = int(binary.LittleEndian.Uint32(body[20:]))
	msgs = int64(binary.LittleEndian.Uint64(body[24:]))
	return g, ticks, msgs, body[5]&tmr1FlagExact != 0, nil
}

var elapsedField = regexp.MustCompile(`"elapsed_ms": *[0-9]+`)

// stripElapsed returns body with its per-request elapsed time zeroed: the
// only field of a cache-hit reply that may differ between two hits.
func stripElapsed(body []byte, bin bool) []byte {
	if bin {
		out := append([]byte(nil), body...)
		if len(out) >= tmr1Header {
			clear(out[tmr1Elapsed : tmr1Elapsed+8])
		}
		return out
	}
	return elapsedField.ReplaceAll(body, []byte(`"elapsed_ms": 0`))
}

func statusErr(rep *reply) error {
	if rep.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", rep.status, rep.body)
	}
	return nil
}

func wantHeader(rep *reply, name, want string) error {
	if got := rep.header.Get(name); got != want {
		return fmt.Errorf("%s = %q, want %q", name, got, want)
	}
	return nil
}

// checkCold verifies a POST /map that had to run the engine: a cache miss
// whose reconstruction is port-preserving isomorphic to the posted graph
// anchored at its root, under the posted graph's content address.
func checkCold(it *item, rep *reply, bin bool) (ticks int, msgs int64, err error) {
	if err := statusErr(rep); err != nil {
		return 0, 0, err
	}
	if err := wantHeader(rep, "X-Topomap-Cache", "miss"); err != nil {
		return 0, 0, err
	}
	if err := wantHeader(rep, "X-Topomap-Digest", hex.EncodeToString(it.dig[:])); err != nil {
		return 0, 0, err
	}
	return verifyReply(it, rep, bin)
}

// checkUncached verifies a POST /map?nocache=1, which runs the engine
// without consulting the cache: no cache state, no content address, and a
// reconstruction that verifies.
func checkUncached(it *item, rep *reply) error {
	if err := statusErr(rep); err != nil {
		return err
	}
	for _, h := range []string{"X-Topomap-Cache", "X-Topomap-Digest"} {
		if err := wantHeader(rep, h, ""); err != nil {
			return err
		}
	}
	_, _, err := verifyReply(it, rep, false)
	return err
}

// verifyReply decodes a map reply and checks that its reconstruction is
// port-preserving isomorphic to the posted graph anchored at its root.
func verifyReply(it *item, rep *reply, bin bool) (ticks int, msgs int64, err error) {
	topo, ticks, msgs, exact, err := decodeReply(rep.body, bin)
	if err != nil {
		return 0, 0, err
	}
	if !exact || !topomap.Verify(it.g, it.root, topo) {
		return 0, 0, fmt.Errorf("reconstruction of %s does not verify (exact=%v)", it.name, exact)
	}
	return ticks, msgs, nil
}

// checkHit verifies a POST /map served from the cache: byte for byte the
// reply recorded for the same graph and codec, elapsed time aside.
func checkHit(rep *reply, want []byte, bin bool) error {
	if err := statusErr(rep); err != nil {
		return err
	}
	if err := wantHeader(rep, "X-Topomap-Cache", "hit"); err != nil {
		return err
	}
	if !bytes.Equal(stripElapsed(rep.body, bin), stripElapsed(want, bin)) {
		return errors.New("cache hit body differs from the recorded reply")
	}
	return nil
}

// checkPatch verifies a PATCH /map: its reconstruction equals want (the
// structural rebuild of the post-delta network) and its X-Topomap-Digest is
// want's canonical digest. It returns the remap path the daemon took.
func checkPatch(rep *reply, bin bool, want *graph.Graph, wantDig graph.Digest) (path string, err error) {
	if err := statusErr(rep); err != nil {
		return "", err
	}
	path = rep.header.Get("X-Topomap-Remap")
	if path != "incremental" && path != "full" {
		return "", fmt.Errorf("X-Topomap-Remap = %q", path)
	}
	if err := wantHeader(rep, "X-Topomap-Digest", hex.EncodeToString(wantDig[:])); err != nil {
		return "", err
	}
	topo, _, _, _, err := decodeReply(rep.body, bin)
	if err != nil {
		return "", err
	}
	if !topo.Equal(want) {
		return "", errors.New("patched reconstruction differs from the rebuild of the post-delta network")
	}
	return path, nil
}
