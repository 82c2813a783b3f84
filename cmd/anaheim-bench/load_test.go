package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	if _, err := parseMix("logreg,lintrans,bootstrap"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseMix("logreg,nosuch"); err == nil {
		t.Fatal("want error for unknown workload")
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 50); p != 5 {
		t.Fatalf("p50 = %v, want 5", p)
	}
	if p := percentile(s, 99); p != 10 {
		t.Fatalf("p99 = %v, want 10", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Fatalf("p50 of empty = %v, want 0", p)
	}
}

// TestLoadSmoke drives the many-tenant load driver end to end at a small
// scale: every tier completes jobs, and the report has the shape
// BENCH_BASELINE.json records.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load driver is slow")
	}
	var sb strings.Builder
	repPtr, err := runLoad(&sb, 9, "logreg", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if repPtr == nil {
		t.Fatal("runLoad returned nil report")
	}
	var rep loadReport
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if rep.Tenants != 9 || len(rep.Mix) != 1 {
		t.Fatalf("report shape: tenants=%d mix=%v", rep.Tenants, rep.Mix)
	}
	run := rep.Run
	if run.JobsDone == 0 || run.OpsDone == 0 || run.ThroughputOpsPerSec <= 0 {
		t.Errorf("run did no work: %+v", run)
	}
	for _, tier := range loadTiers {
		ts := run.Tiers[tier]
		if ts == nil || ts.Jobs == 0 {
			t.Errorf("tier %s has no completed jobs", tier)
			continue
		}
		if ts.P99Ms < ts.P50Ms || ts.P50Ms <= 0 {
			t.Errorf("tier %s: implausible latency p50=%v p99=%v", tier, ts.P50Ms, ts.P99Ms)
		}
	}
}
