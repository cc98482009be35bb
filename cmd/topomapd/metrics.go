package main

import (
	"fmt"
	"net/http"
	"strings"
)

// handleMetrics serves the pool statistics in the Prometheus text
// exposition format (version 0.0.4), hand-rolled — the daemon takes no
// dependencies for what is a dozen Fprintf calls. Counters are cumulative
// since process start; gauges are instantaneous; latency totals are
// exported in seconds alongside their sample counts, the standard _sum/
// _count pairing that lets a scraper derive means and rates.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := s.svc.Stats()
	var b strings.Builder

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	gauge("topomapd_pool_sessions", "Warm mapping sessions in the pool.", st.Size)
	gauge("topomapd_queue_capacity", "Job queue capacity.", st.QueueCap)
	gauge("topomapd_queue_length", "Jobs queued right now.", st.QueueLen)
	gauge("topomapd_running", "Runs executing right now.", st.Running)

	counter("topomapd_jobs_submitted_total", "Jobs accepted by the pool.", st.Submitted)
	counter("topomapd_jobs_rejected_total", "Submits rejected by a full queue.", st.Rejected)
	counter("topomapd_runs_served_total", "Engine runs executed.", st.Served)
	counter("topomapd_runs_failed_total", "Engine runs that returned an error.", st.Failed)
	counter("topomapd_jobs_canceled_total", "Jobs finished without running.", st.Canceled)
	counter("topomapd_runs_panicked_total", "Runs that panicked (session rebuilt).", st.Panics)
	counter("topomapd_warm_serves_total", "Runs served on an already-warm session.", st.WarmServes)

	cs := s.codec.snapshot()
	fmt.Fprintf(&b, "# HELP topomapd_codec_requests_total Decoded /map requests by input codec.\n"+
		"# TYPE topomapd_codec_requests_total counter\n"+
		"topomapd_codec_requests_total{codec=\"text\"} %d\n"+
		"topomapd_codec_requests_total{codec=\"binary\"} %d\n"+
		"topomapd_codec_requests_total{codec=\"family\"} %d\n",
		cs.TextRequests, cs.BinaryRequests, cs.FamilyRequests)
	fmt.Fprintf(&b, "# HELP topomapd_codec_responses_total /map responses by output codec.\n"+
		"# TYPE topomapd_codec_responses_total counter\n"+
		"topomapd_codec_responses_total{codec=\"json\"} %d\n"+
		"topomapd_codec_responses_total{codec=\"binary\"} %d\n",
		cs.JSONResponses, cs.BinaryResponses)
	counter("topomapd_codec_decode_errors_total", "Request bodies rejected by the graph codecs.", cs.DecodeErrors)
	counter("topomapd_codec_bytes_in_total", "Request payload bytes consumed by the codecs.", cs.BytesIn)
	counter("topomapd_codec_bytes_out_total", "Response payload bytes written by /map.", cs.BytesOut)

	counter("topomapd_cache_hits_total", "Submits served from the result cache.", st.CacheHits)
	counter("topomapd_cache_misses_total", "Submits that started a fresh engine run.", st.CacheMisses)
	counter("topomapd_cache_shared_total", "Submits collapsed onto an in-flight run.", st.CacheShared)
	counter("topomapd_cache_evictions_total", "Cache entries displaced by the byte bound.", st.CacheEvictions)
	counter("topomapd_remap_incremental_total", "PATCH remaps served by the suffix patch.", st.RemapIncremental)
	counter("topomapd_remap_full_total", "PATCH remaps served by a full structural rebuild.", st.RemapFull)
	counter("topomapd_remap_shared_total", "PATCH remaps collapsed onto an identical patch in flight.", st.RemapShared)
	counter("topomapd_remap_base_misses_total", "PATCH remaps rejected because the base digest was not cached.", st.RemapBaseMisses)
	gauge("topomapd_cache_bytes", "Accounted bytes held by the result cache.", st.CacheBytes)
	gauge("topomapd_cache_entries", "Entries held by the result cache.", st.CacheEntries)

	fmt.Fprintf(&b, "# HELP topomapd_queue_wait_seconds Cumulative queue wait of served runs.\n"+
		"# TYPE topomapd_queue_wait_seconds counter\n"+
		"topomapd_queue_wait_seconds_sum %g\ntopomapd_queue_wait_seconds_count %d\n",
		st.TotalQueueWait.Seconds(), st.Served)
	fmt.Fprintf(&b, "# HELP topomapd_run_seconds Cumulative run time of served runs.\n"+
		"# TYPE topomapd_run_seconds counter\n"+
		"topomapd_run_seconds_sum %g\ntopomapd_run_seconds_count %d\n",
		st.TotalRun.Seconds(), st.Served)
	fmt.Fprintf(&b, "# HELP topomapd_cache_hit_seconds Cumulative submit-to-done latency of cache hits.\n"+
		"# TYPE topomapd_cache_hit_seconds counter\n"+
		"topomapd_cache_hit_seconds_sum %g\ntopomapd_cache_hit_seconds_count %d\n",
		st.TotalHit.Seconds(), st.CacheHits)

	gauge("topomapd_heap_inuse_bytes", "Process live-heap bytes.", st.HeapInUse)
	gauge("topomapd_engine_bytes", "Engine buffer footprint of the last-served session.", st.EngineBytes)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
