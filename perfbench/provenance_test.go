package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleRecord(commit string, seed int64, value float64) record {
	rec := newRecord(options{workload: "bulk-lifecycle", seed: seed, budget: 10 * time.Second},
		report{
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"jobs_per_s": {value, "1/s"}}},
			Sizes:  streamSizes(bulkLifecycle),
		})
	rec.Provenance.Commit = commit
	return rec
}

func TestCompareAcceptsCommitOnlyDifference(t *testing.T) {
	lines, err := compareRecords([]record{sampleRecord("aaa", 1, 100)}, []record{sampleRecord("bbb", 1, 150)})
	if err != nil {
		t.Fatal(err)
	}
	if out := strings.Join(lines, "\n"); !strings.Contains(out, "×1.5000") {
		t.Fatalf("comparison output lacks the ratio:\n%s", out)
	}
}

func TestCompareRefusesProvenanceDrift(t *testing.T) {
	base := sampleRecord("aaa", 1, 100)
	drifts := map[string]func(*record){
		"seed":           func(r *record) { r.Provenance.Seed = 2 },
		"gomaxprocs":     func(r *record) { r.Provenance.GOMAXPROCS++ },
		"nproc":          func(r *record) { r.Provenance.NumCPU++ },
		"go version":     func(r *record) { r.Provenance.GoVersion = "go0.0" },
		"population":     func(r *record) { r.Provenance.Sizes = streamSizes(smallLines) },
		"stream workers": func(r *record) { r.Provenance.Sizes["stream_workers"]++ },
		"workload":       func(r *record) { r.Provenance.Workload = "small-lines" },
		"trace":          func(r *record) { r.Provenance.Trace = true },
	}
	for name, drift := range drifts {
		other := sampleRecord("bbb", 1, 100)
		drift(&other)
		if _, err := compareRecords([]record{base}, []record{other}); err == nil {
			t.Errorf("%s drift: comparison was not refused", name)
		}
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	recs := []record{sampleRecord("aaa", 3, 42)}
	if err := writeRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := provenanceDiff(got[0].Provenance, recs[0].Provenance); len(d) > 0 || got[0].Provenance.Commit != "aaa" {
		t.Fatalf("provenance changed in a round trip: %v", d)
	}
}
