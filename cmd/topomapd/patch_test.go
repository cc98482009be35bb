package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"topomap"
	"topomap/internal/graph"
)

// doPatch issues a PATCH /map and decodes the JSON response.
func doPatch(t *testing.T, url, contentType string, body []byte) (*http.Response, patchResult, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var pr patchResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatalf("bad patch JSON: %v\n%s", err, raw)
		}
	}
	return resp, pr, raw
}

// TestPatchEndToEnd: POST a graph, then PATCH deltas against its digest —
// text and binary bodies, incremental and full paths, chained digests —
// and confirm every patched reconstruction matches a from-scratch map of the
// mutated network, with the counters and headers to prove how it was served.
func TestPatchEndToEnd(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, Workers: 1, MaxNodes: 1 << 16, CacheBytes: 1 << 20})

	truth := topomap.Ring(32)
	resp, err := http.Post(ts.URL+"/map", "text/plain", strings.NewReader(truth.MarshalString()))
	if err != nil {
		t.Fatal(err)
	}
	var res mapResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	recon, err := graph.UnmarshalString(res.Graph)
	if err != nil {
		t.Fatal(err)
	}

	// The POST response carries the content address the result is cached
	// under — the base the first PATCH chains from, so clients never have
	// to digest anything themselves.
	base := truth.CanonicalDigest(0)
	if res.Digest != hex.EncodeToString(base[:]) {
		t.Fatalf("POST digest %q != the input's canonical content address", res.Digest)
	}
	if got := resp.Header.Get("X-Topomap-Digest"); got != res.Digest {
		t.Fatalf("POST X-Topomap-Digest %q != body digest %q", got, res.Digest)
	}

	// Text delta, label-stable: served incrementally, zero ticks.
	d1 := new(topomap.Delta).Insert(20, 2, 5, 2)
	presp, pr, raw := doPatch(t, ts.URL+"/map?base="+hex.EncodeToString(base[:]), "text/plain", []byte(d1.MarshalText()))
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("text PATCH: %d: %s", presp.StatusCode, raw)
	}
	if got := presp.Header.Get("X-Topomap-Remap"); got != "incremental" {
		t.Fatalf("X-Topomap-Remap = %q, want incremental", got)
	}
	if pr.Remap != "incremental" || pr.Dirty != 0 || pr.Ticks != 0 {
		t.Fatalf("incremental patch result: %+v", pr)
	}
	if !pr.Remapped || presp.Header.Get("X-Topomap-Remapped") != "1" {
		t.Fatalf("patch-produced result not flagged remapped: %+v", pr)
	}
	if presp.Header.Get("X-Topomap-Digest") != pr.Digest {
		t.Fatal("digest header and body disagree")
	}
	patched, err := graph.UnmarshalString(pr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	mutated := d1.MustApplyClone(recon)
	want, err := topomap.Map(mutated, topomap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !patched.Equal(want.Topology) {
		t.Fatal("patched reconstruction != full map of the mutated network")
	}

	// A later POST of the mutated network hits the patch-produced entry; its
	// zero protocol counters are flagged so the hit is distinguishable from a
	// real run.
	hresp, err := http.Post(ts.URL+"/map", "text/plain", strings.NewReader(mutated.MarshalString()))
	if err != nil {
		t.Fatal(err)
	}
	var hres mapResult
	if err := json.NewDecoder(hresp.Body).Decode(&hres); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if got := hresp.Header.Get("X-Topomap-Cache"); got != "hit" {
		t.Fatalf("POST after patch: X-Topomap-Cache %q, want hit", got)
	}
	if !hres.Remapped || hresp.Header.Get("X-Topomap-Remapped") != "1" {
		t.Fatalf("hit on a patch-produced entry not flagged remapped: %+v", hres)
	}
	if hres.Ticks != 0 {
		t.Fatalf("patch-produced entry grew counters: %+v", hres)
	}

	// Binary delta against the post-delta digest: chaining via the frame's
	// own base field.
	d2 := new(topomap.Delta).Insert(25, 2, 9, 2)
	postDigest, err := parseDigest(pr.Digest)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := graph.MarshalDeltaBinary(postDigest, d2)
	if err != nil {
		t.Fatal(err)
	}
	presp2, pr2, raw2 := doPatch(t, ts.URL+"/map", contentTypeBinary, frame)
	if presp2.StatusCode != http.StatusOK {
		t.Fatalf("binary PATCH: %d: %s", presp2.StatusCode, raw2)
	}
	if pr2.Remap != "incremental" {
		t.Fatalf("chained binary patch: %+v", pr2)
	}
	if got := presp2.Header.Get("X-Topomap-Codec"); got != "binary/json" {
		t.Fatalf("codec header %q", got)
	}
	m2 := d2.MustApplyClone(patched)
	if pr2.Digest != hex.EncodeToString(func() []byte { d := m2.CanonicalDigest(0); return d[:] }()) {
		t.Fatal("chained digest is not the mutated network's content address")
	}

	// A root-tree rewire dirties everything: the full structural rebuild
	// serves it, bit-equal to a protocol run, with the header saying so and
	// no engine run behind it.
	var before struct{ topomap.ServiceStats }
	getJSON(t, ts.URL+"/stats", &before)
	d3 := new(topomap.Delta).Delete(0, 1, 1, 1).Insert(0, 1, 1, 2)
	presp3, pr3, raw3 := doPatch(t, ts.URL+"/map?base="+hex.EncodeToString(base[:]), "text/plain", []byte(d3.MarshalText()))
	if presp3.StatusCode != http.StatusOK {
		t.Fatalf("full PATCH: %d: %s", presp3.StatusCode, raw3)
	}
	if got := presp3.Header.Get("X-Topomap-Remap"); got != "full" {
		t.Fatalf("X-Topomap-Remap = %q, want full", got)
	}
	if pr3.Remap != "full" || pr3.Dirty != 32 || pr3.Ticks != 0 || pr3.Messages != 0 || pr3.Transactions != 0 {
		t.Fatalf("full patch result: %+v", pr3)
	}
	if !pr3.Remapped || presp3.Header.Get("X-Topomap-Remapped") != "1" {
		t.Fatalf("rebuilt result ran no protocol; must be flagged remapped: %+v", pr3)
	}
	var after struct{ topomap.ServiceStats }
	getJSON(t, ts.URL+"/stats", &after)
	if after.Served != before.Served {
		t.Fatalf("full PATCH ran the engine: Served %d -> %d", before.Served, after.Served)
	}
	rebuilt, err := graph.UnmarshalString(pr3.Graph)
	if err != nil {
		t.Fatal(err)
	}
	m3 := d3.MustApplyClone(recon)
	want3, err := topomap.Map(m3, topomap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Equal(want3.Topology) {
		t.Fatal("rebuilt reconstruction != full map of the mutated network")
	}
	if d := want3.Topology.CanonicalDigest(0); pr3.Digest != hex.EncodeToString(d[:]) {
		t.Fatal("full PATCH digest is not the mutated network's content address")
	}

	// Unknown base: 412, the client's cue to POST the full graph.
	bogus := strings.Repeat("ab", 32)
	presp4, _, _ := doPatch(t, ts.URL+"/map?base="+bogus, "text/plain", []byte(d1.MarshalText()))
	if presp4.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("unknown base: %d, want 412", presp4.StatusCode)
	}

	// The counters tell the same story.
	var st struct{ topomap.ServiceStats }
	getJSON(t, ts.URL+"/stats", &st)
	if st.RemapIncremental != 2 || st.RemapFull != 1 || st.RemapBaseMisses != 1 {
		t.Fatalf("remap stats: inc=%d full=%d baseMiss=%d",
			st.RemapIncremental, st.RemapFull, st.RemapBaseMisses)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"topomapd_remap_incremental_total 2",
		"topomapd_remap_full_total 1",
		"topomapd_remap_base_misses_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestPatchErrors: malformed requests and cache-less daemons fail cleanly.
func TestPatchErrors(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, Workers: 1, MaxNodes: 1 << 16, CacheBytes: 1 << 20})

	// Text delta without a base digest.
	if resp, _, _ := doPatch(t, ts.URL+"/map", "text/plain", []byte("patch +1:2>0:2")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing base: %d, want 400", resp.StatusCode)
	}
	// Unparseable delta.
	bogus := strings.Repeat("ab", 32)
	if resp, _, _ := doPatch(t, ts.URL+"/map?base="+bogus, "text/plain", []byte("not a delta")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad delta: %d, want 400", resp.StatusCode)
	}
	// Truncated binary frame.
	if resp, _, _ := doPatch(t, ts.URL+"/map", contentTypeBinary, []byte("tmd1")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame: %d, want 400", resp.StatusCode)
	}
	// Model-breaking delta against a real base: deleting a ring edge
	// disconnects it.
	truth := topomap.Ring(16)
	resp, err := http.Post(ts.URL+"/map", "text/plain", strings.NewReader(truth.MarshalString()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	base := truth.CanonicalDigest(0)
	bad := new(topomap.Delta).Delete(5, 1, 6, 1)
	if resp, _, _ := doPatch(t, ts.URL+"/map?base="+hex.EncodeToString(base[:]), "text/plain", []byte(bad.MarshalText())); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("model-breaking delta: %d, want 422", resp.StatusCode)
	}
	// Over-threshold and model-breaking: the root still reaches every node,
	// but 10 and 11 become a sink cycle (the chord 9→12 cuts the preorder at
	// 10, dirtying 6 of 16). The full rebuild's model check refuses it and
	// nothing is cached.
	var before struct{ topomap.ServiceStats }
	getJSON(t, ts.URL+"/stats", &before)
	sink := new(topomap.Delta).Delete(11, 1, 12, 1).Insert(11, 1, 10, 2).Insert(9, 2, 12, 2)
	if resp, _, raw := doPatch(t, ts.URL+"/map?base="+hex.EncodeToString(base[:]), "text/plain", []byte(sink.MarshalText())); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("sink-cycle delta: %d, want 422: %s", resp.StatusCode, raw)
	}
	var after struct{ topomap.ServiceStats }
	getJSON(t, ts.URL+"/stats", &after)
	if after.CacheEntries != before.CacheEntries || after.RemapFull != before.RemapFull {
		t.Fatalf("rejected delta cached (%d -> %d entries) or counted (full %d -> %d)",
			before.CacheEntries, after.CacheEntries, before.RemapFull, after.RemapFull)
	}

	// Cache off: PATCH is 501.
	tsOff := newTestServer(t, serverConfig{Pool: 1, Workers: 1, MaxNodes: 1 << 16})
	if resp, _, _ := doPatch(t, tsOff.URL+"/map?base="+bogus, "text/plain", []byte("patch +1:2>0:2")); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("cache-less PATCH: %d, want 501", resp.StatusCode)
	}
}
