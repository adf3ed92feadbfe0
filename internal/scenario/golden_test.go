package scenario_test

// Record-level golden for the dynamic engine: every field of every
// attempt record, for every extended scheduler (FailSafe-wrapped) on all
// four platform classes, under a static run with the Figure-2 size
// perturbation and under the generated failure, drift and flash-crowd
// timelines (fail, recover, leave, join and drift), plus one multiport
// run. The engine and the live runtime share one master bookkeeping, so
// their conformance suites cannot catch a change common to both; this
// file can. The aggregate msched goldens pin only two cases.
//
// testdata/attempt_records.golden holds one line per case: the case
// name, the attempt and loss counts, and a SHA-256 over the raw bits of
// every record field in attempt-ID order. On a mismatch the test prints
// the whole file as computed, so an intended change is re-pinned by
// pasting it over the old one.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	goldenSlaves  = 5
	goldenTasks   = 48
	goldenPerturb = 0.1 // Figure 2's ±10% matrix-size perturbation
)

// recordHasher folds record fields into a SHA-256, times as raw IEEE bits.
type recordHasher struct{ h hash.Hash }

func (r recordHasher) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	r.h.Write(b[:])
}

func (r recordHasher) float(v float64) { r.int(int(math.Float64bits(v))) }

func (r recordHasher) bool(v bool) {
	if v {
		r.int(1)
	} else {
		r.int(0)
	}
}

func (r recordHasher) record(rec core.Record) {
	r.int(int(rec.Task))
	r.int(rec.Slave)
	r.float(rec.Release)
	r.float(rec.SendStart)
	r.float(rec.Arrive)
	r.float(rec.Start)
	r.float(rec.Complete)
	r.bool(rec.Lost)
}

func attemptsLine(name string, out scenario.Outcome) string {
	r := recordHasher{sha256.New()}
	for _, a := range out.Attempts {
		r.int(int(a.Original))
		r.int(int(a.ID))
		r.record(a.Record)
		r.bool(a.Lost)
		r.float(a.LostAt)
	}
	return fmt.Sprintf("%s attempts=%d lost=%d final-m=%d %x",
		name, len(out.Attempts), out.Lost, out.FinalM, r.h.Sum(nil))
}

// goldenScenarios draws the four timelines for one platform replicate.
// The horizon is the replicate's static SRPT makespan, as in the
// scenario study, so event density tracks how long the work takes.
func goldenScenarios(t *testing.T, seed int64, pl core.Platform, tasks []core.Task) []scenario.Scenario {
	t.Helper()
	static, err := sim.Simulate(pl, sched.NewSRPT(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	horizon := static.Makespan()
	rng := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*10 + k)) }
	return []scenario.Scenario{
		{Name: "static-perturbed"},
		workload.FailureScenario(rng(1), pl.M(), horizon, 1, 0.1*horizon),
		workload.DriftScenario(rng(2), pl, horizon, 4, 0.4),
		workload.FlashCrowdScenario(rng(3), pl.M(), 3, 0.2*horizon, 0.5*horizon, core.GenConfig{}),
	}
}

func goldenLines(t *testing.T) []string {
	var lines []string
	for ci, class := range core.Classes {
		seed := int64(100 + ci)
		pl := core.Random(rand.New(rand.NewSource(seed)), class, core.GenConfig{M: goldenSlaves})
		gen := core.DefaultGenConfig()
		rate := 0.9 * float64(goldenSlaves) / ((gen.PMin + gen.PMax) / 2)
		tasks := workload.Generate(rand.New(rand.NewSource(seed+50)), workload.Config{
			N: goldenTasks, Pattern: workload.Poisson, Rate: rate, Perturb: goldenPerturb,
		})
		for _, sc := range goldenScenarios(t, seed, pl, tasks) {
			kind := strings.SplitN(sc.Name, "(", 2)[0]
			for _, name := range sched.ExtendedNames() {
				caseName := fmt.Sprintf("%v/%s/%s", class, kind, name)
				out, err := scenario.Run(pl, sched.FailSafe(sched.New(name)), tasks, sc)
				if err != nil {
					t.Fatalf("%s: %v", caseName, err)
				}
				lines = append(lines, attemptsLine(caseName, out))
			}
		}
	}

	pl := core.Random(rand.New(rand.NewSource(7)), core.Heterogeneous, core.GenConfig{M: goldenSlaves})
	tasks := workload.Generate(rand.New(rand.NewSource(8)), workload.Config{N: goldenTasks, Perturb: goldenPerturb})
	s, err := sim.SimulateMultiport(pl, sched.NewLS(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	r := recordHasher{sha256.New()}
	for _, rec := range s.Records {
		r.record(rec)
	}
	lines = append(lines, fmt.Sprintf("multiport/heterogeneous/LS records=%d %x", len(s.Records), r.h.Sum(nil)))
	return lines
}

// TestAttemptRecordsGolden pins every attempt record bit for bit.
func TestAttemptRecordsGolden(t *testing.T) {
	path := filepath.Join("testdata", "attempt_records.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(goldenLines(t), "\n") + "\n"
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("first divergence at line %d:\n got  %s\n want %s", i+1, line, wantLineAt(wantLines, i))
			break
		}
	}
	t.Fatalf("%s diverged; the records as computed now:\n%s", path, got)
}

func wantLineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}
