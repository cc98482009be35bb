package main

import "testing"

// TestCountersKeyedBySource: a seed's counters must repeat on the same
// source, while other source may count other work without failing.
func TestCountersKeyedBySource(t *testing.T) {
	dir := t.TempDir()
	k := counters{Runs: 3, Ticks: 100, Messages: 900, PatchIncremental: 1, PatchFull: 2}
	if err := checkCounters(dir, "cold_mix", 7, "aaaa", k); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := checkCounters(dir, "cold_mix", 7, "aaaa", k); err != nil {
		t.Fatalf("identical rerun: %v", err)
	}
	moved := k
	moved.Ticks++
	if err := checkCounters(dir, "cold_mix", 7, "aaaa", moved); err == nil {
		t.Fatal("changed work on the same source passed")
	}
	if err := checkCounters(dir, "cold_mix", 7, "bbbb", moved); err != nil {
		t.Fatalf("changed work on other source failed: %v", err)
	}
	if err := checkCounters(dir, "cold_mix", 8, "aaaa", moved); err != nil {
		t.Fatalf("another seed failed: %v", err)
	}
}
