package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP topomapd_runs_served_total Engine runs executed.
# TYPE topomapd_runs_served_total counter
topomapd_runs_served_total 4
topomapd_codec_responses_total{codec="json"} 10
topomapd_codec_responses_total{codec="binary"} 2
topomapd_run_seconds_sum 1.5
topomapd_run_seconds_count 4
topomapd_heap_inuse_bytes 4.194304e+06
`

const scrapeAfter = `topomapd_runs_served_total 10
topomapd_codec_responses_total{codec="json"} 25
topomapd_codec_responses_total{codec="binary"} 2
topomapd_run_seconds_sum 3.9
topomapd_run_seconds_count 10
topomapd_remap_full_total 3
topomapd_heap_inuse_bytes 5e+06
`

func TestMetricsDeltaParser(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before["topomapd_heap_inuse_bytes"]; got != 4194304 {
		t.Errorf("exponent form parsed as %g", got)
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{"topomapd_runs_served_total", 6},
		{`topomapd_codec_responses_total{codec="json"}`, 15},
		{`topomapd_codec_responses_total{codec="binary"}`, 0},
		{"topomapd_run_seconds_count", 6},
		// Absent before: counts from zero. Absent in both: no activity.
		{"topomapd_remap_full_total", 3},
		{"topomapd_remap_incremental_total", 0},
	} {
		if got := after.delta(before, c.name); got != c.want {
			t.Errorf("delta %s = %g, want %g", c.name, got, c.want)
		}
	}
	if got := after.delta(before, "topomapd_run_seconds_sum"); got < 2.4-1e-9 || got > 2.4+1e-9 {
		t.Errorf("run seconds delta = %g, want 2.4", got)
	}
	sum := promSample{}
	sum.add(after, before)
	sum.add(after, before)
	if got := sum["topomapd_runs_served_total"]; got != 12 {
		t.Errorf("two accumulated deltas of served runs = %g, want 12", got)
	}
	if got := sum["topomapd_remap_full_total"]; got != 6 {
		t.Errorf("accumulated delta of a new counter = %g, want 6", got)
	}
	if _, err := parseProm(strings.NewReader("topomapd_bad_line\n")); err == nil {
		t.Error("a line without a value parsed")
	}
	if _, err := parseProm(strings.NewReader("topomapd_x one\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}
