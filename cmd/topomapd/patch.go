package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"topomap"
	"topomap/internal/graph"
)

// maxDeltaBodyBytes bounds a PATCH body: the largest legal tmd1 frame is
// under 800 KiB (2¹⁶−1 ops × 12 B + header) and text deltas are smaller.
const maxDeltaBodyBytes = 1 << 20

// patchResult is the wire form of a completed remap: the mapping result
// plus how it was produced and the post-delta content address (the base for
// the client's next PATCH).
type patchResult struct {
	mapResult
	Remap string `json:"remap"`
	Dirty int    `json:"dirty"`
}

// handlePatch serves PATCH /map: an incremental remap of a reconstruction
// the daemon has already mapped and cached, addressed by content digest.
//
// The body is either a binary delta frame (tmd1, Content-Type
// application/x-topomap or sniffed from the magic) — which carries its base
// digest — or the one-line text form ("patch +3:2>17:2 ..."), with the base
// digest supplied by ?base= or the X-Topomap-Base header (64 hex chars).
// Delta node ids live in the base reconstruction's label space (node 0 =
// root). No PATCH runs the engine: a delta that dirties over a quarter of
// the labels is served by a full structural rebuild instead of the suffix
// patch. Responses carry X-Topomap-Remap (incremental|full),
// X-Topomap-Remapped: 1 unless an engine run had already cached the
// result, and X-Topomap-Digest (the post-delta address); an Accept header
// naming application/x-topomap negotiates a binary result frame. 412 means
// the base is not cached — POST the full graph instead.
func (s *server) handlePatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	body := &countingReader{r: io.LimitReader(r.Body, maxDeltaBodyBytes)}
	defer func() { s.codec.bytesIn.Add(uint64(body.n)) }()
	data, err := io.ReadAll(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	var base topomap.Digest
	var d *topomap.Delta
	inCodec := codecText
	if graph.IsBinaryDelta(data) || r.Header.Get("Content-Type") == contentTypeBinary {
		inCodec = codecBinary
		base, d, err = graph.UnmarshalDeltaBinary(data)
		if err != nil {
			s.codec.decodeErrors.Add(1)
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		hexDigest := q.Get("base")
		if hexDigest == "" {
			hexDigest = r.Header.Get("X-Topomap-Base")
		}
		if base, err = parseDigest(hexDigest); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if d, err = parseDeltaText(data); err != nil {
			s.codec.decodeErrors.Add(1)
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.codec.countRequest(inCodec)

	withGraph := q.Get("graph") != "0"
	outCodec := codecJSON
	if acceptsBinary(r) {
		outCodec = codecBinary
	}
	w.Header().Set("X-Topomap-Codec", inCodec+"/"+outCodec)
	s.codec.countResponse(outCodec)

	start := time.Now()
	out, err := s.svc.Remap(r.Context(), base, d)
	if err != nil {
		remapError(w, err)
		return
	}
	w.Header().Set("X-Topomap-Remap", out.Kind.String())
	w.Header().Set("X-Topomap-Digest", hex.EncodeToString(out.Digest[:]))

	ent := out.Cached
	if ent.Remapped() {
		// Remap-produced entry: the counters below are zero because no
		// protocol ran. Same flag a later POST hit on this entry carries.
		w.Header().Set("X-Topomap-Remapped", "1")
	}
	res := ent.Result()
	if outCodec == codecBinary {
		br := binaryResult{
			N:            res.Topology.N(),
			Delta:        res.Topology.Delta(),
			Edges:        ent.Edges(),
			Root:         0,
			Ticks:        res.Ticks,
			Messages:     res.Messages,
			Transactions: int64(res.Transactions),
			ElapsedUS:    elapsedUS(start),
			Exact:        ent.Exact(),
			GraphBin:     ent.Binary(),
		}
		w.Header().Set("Content-Type", contentTypeBinary)
		w.WriteHeader(http.StatusOK)
		_ = writeBinaryResult(w, br, withGraph)
		return
	}
	pr := patchResult{
		mapResult: mapResult{
			N:            res.Topology.N(),
			Delta:        res.Topology.Delta(),
			Edges:        ent.Edges(),
			Root:         0,
			Ticks:        res.Ticks,
			Messages:     res.Messages,
			Transactions: res.Transactions,
			Exact:        ent.Exact(),
			Remapped:     ent.Remapped(),
			ElapsedMS:    time.Since(start).Milliseconds(),
			Digest:       hex.EncodeToString(out.Digest[:]),
		},
		Remap: out.Kind.String(),
		Dirty: out.Dirty,
	}
	if withGraph {
		pr.Graph = ent.Text()
	}
	writeJSON(w, http.StatusOK, pr)
}

// parseDigest decodes a 64-hex-char content address.
func parseDigest(s string) (topomap.Digest, error) {
	var d topomap.Digest
	if s == "" {
		return d, errors.New("text deltas need the base digest: ?base= or X-Topomap-Base (64 hex chars, from a prior response's digest field)")
	}
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("bad base digest %q: want %d hex chars", s, 2*len(d))
	}
	copy(d[:], raw)
	return d, nil
}

// parseDeltaText extracts the delta from a text body: the first non-empty,
// non-comment line, in the "patch ..." form.
func parseDeltaText(data []byte) (*topomap.Delta, error) {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return topomap.ParseDelta(line)
	}
	return nil, errors.New("empty delta body")
}

// remapError maps Remap failures to status codes: a missing base is 412 (the
// precondition — a cached base — failed; re-POST the full graph), a cache-less
// daemon is 501, and everything else (malformed or model-breaking deltas)
// 422. A remap never queues for the engine, so there is no 503 or 504.
func remapError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, topomap.ErrUnknownBase):
		httpError(w, http.StatusPreconditionFailed, err.Error())
	case errors.Is(err, topomap.ErrRemapNoCache):
		httpError(w, http.StatusNotImplemented, "the result cache is off (-cache-bytes); PATCH needs it")
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	}
}
