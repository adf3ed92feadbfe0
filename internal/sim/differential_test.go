package sim

// Differential tests for the allocation-free hot path: each refactored
// structure is pinned against a straightforward reference
// implementation of its pre-refactor behavior. The engine-level
// counterpart lives in internal/experiment (golden replicate JSON
// recorded by the pre-refactor binary) and internal/live (the
// sim-vs-live conformance suite).

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// refReady is the pre-refactor Ready: a full fold over the backlog on
// every call, no memo.
func refReady(lastSync float64, units []ledgerUnit, nominalComp float64) float64 {
	t := lastSync
	for _, u := range units {
		if u.arrival > t {
			t = u.arrival
		}
		t += nominalComp
	}
	return t
}

// TestLedgerReadyDifferential drives a random mutation stream through
// the memoized Ledger and checks every Ready answer — interleaved with
// the mutations, hitting the memo, its one-step extensions and the
// refold — against the reference fold, bit for bit. The stream mixes the
// one-port pattern (the newest unit arrives, the oldest completes) with
// the unbounded-port one (any unit may arrive or complete). A reference
// model of each backlog, kept with the pre-refactor splice semantics,
// checks the ledger's live backlog as well.
func TestLedgerReadyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		const m = 4
		l := NewLedger(m)
		comp := []float64{1.5, 2.25, 0.75, 3}
		now := 0.0
		nextTask := 0
		ref := make([][]ledgerUnit, m) // reference backlog per slave, dispatch order
		refSync := make([]float64, m)
		for op := 0; op < 400; op++ {
			j := rng.Intn(m)
			now += rng.Float64()
			n := len(ref[j])
			switch k := rng.Intn(12); {
			case k < 4: // assign
				arrival := now + rng.Float64()
				l.Assign(j, nextTask, arrival)
				ref[j] = append(ref[j], ledgerUnit{task: nextTask, arrival: arrival})
				nextTask++
			case k < 6 && n > 0: // arrival corrects the newest unit
				l.Arrived(j, ref[j][n-1].task, now)
				ref[j][n-1].arrival = now
			case k < 7 && n > 0: // arrival of an older unit (unbounded port)
				i := rng.Intn(n)
				l.Arrived(j, ref[j][i].task, now)
				ref[j][i].arrival = now
			case k < 9 && n > 0: // completion removes the oldest
				l.Completed(j, ref[j][0].task, now)
				ref[j] = ref[j][1:]
				refSync[j] = math.Max(refSync[j], now)
			case k < 10 && n > 0: // out-of-order completion (unbounded port)
				i := rng.Intn(n)
				l.Completed(j, ref[j][i].task, now)
				ref[j] = append(ref[j][:i:i], ref[j][i+1:]...)
				refSync[j] = math.Max(refSync[j], now)
			case k < 11: // sync
				l.Sync(j, now)
				refSync[j] = math.Max(refSync[j], now)
			default: // fail clears the backlog
				l.Fail(j, now)
				ref[j] = ref[j][:0]
				refSync[j] = math.Max(refSync[j], now)
			}
			// Query a random subset of slaves — repeated queries between
			// mutations exercise the memo path.
			for q := 0; q < 1+rng.Intn(3); q++ {
				qj := rng.Intn(m)
				if got := l.backlog(qj); !slices.Equal(got, ref[qj]) {
					t.Fatalf("trial %d op %d: backlog(%d) = %v, reference %v", trial, op, qj, got, ref[qj])
				}
				if l.Outstanding(qj) != len(ref[qj]) {
					t.Fatalf("trial %d op %d: Outstanding(%d) = %d, want %d", trial, op, qj, l.Outstanding(qj), len(ref[qj]))
				}
				c := comp[qj]
				if rng.Intn(8) == 0 { // a drifted nominal cost: the memo must not answer for it
					c *= 1.5
				}
				got := l.Ready(qj, c)
				want := refReady(refSync[qj], l.backlog(qj), c)
				if got != want {
					t.Fatalf("trial %d op %d: Ready(%d) = %v, reference fold = %v", trial, op, qj, got, want)
				}
				if again := l.Ready(qj, c); again != got {
					t.Fatalf("trial %d op %d: memoized Ready(%d) = %v after %v", trial, op, qj, again, got)
				}
			}
		}
	}
}

// TestQueueCapacityBounded pins the compaction of the two head-indexed
// structures: at a constant occupancy k, 10⁵ push/pop cycles (for the
// ledger, assign/complete) keep the backing array within 2k plus a small
// constant, instead of growing with every value that passed through.
func TestQueueCapacityBounded(t *testing.T) {
	const cycles = 100_000
	for _, k := range []int{1, 7, 100, 188, 1000} {
		var q taskFIFO
		for i := 0; i < k; i++ {
			q.Push(i)
		}
		for i := k; i < k+cycles; i++ {
			q.Push(i)
			if got := q.PopFront(); got != i-k {
				t.Fatalf("k=%d: PopFront = %d, want %d", k, got, i-k)
			}
			if c := cap(q.buf); c > 2*k+8 {
				t.Fatalf("k=%d cycle %d: taskFIFO capacity %d > 2k+8", k, i-k, c)
			}
		}

		l := NewLedger(1)
		for i := 0; i < k; i++ {
			l.Assign(0, i, float64(i))
		}
		for i := k; i < k+cycles; i++ {
			l.Assign(0, i, float64(i))
			l.Completed(0, i-k, float64(i))
			if c := cap(l.slaves[0].units); c > 2*k+8 {
				t.Fatalf("k=%d cycle %d: ledger backlog capacity %d > 2k+8", k, i-k, c)
			}
		}
		if l.Outstanding(0) != k {
			t.Fatalf("k=%d: %d outstanding after the cycles", k, l.Outstanding(0))
		}
	}
}

// TestTaskFIFODifferential pins the head-indexed queue against a plain
// slice driven by the pre-refactor splice operations.
func TestTaskFIFODifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		var q taskFIFO
		var ref []int
		next := 0
		for op := 0; op < 500; op++ {
			switch k := rng.Intn(4); {
			case k == 0 || len(ref) == 0: // push
				q.Push(next)
				ref = append(ref, next)
				next++
			case k == 1: // pop front
				got := q.PopFront()
				want := ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("trial %d op %d: PopFront = %d, want %d", trial, op, got, want)
				}
			default: // remove at random position (the mid-queue dispatch path)
				i := rng.Intn(len(ref))
				if got := q.IndexOf(ref[i]); got != i {
					t.Fatalf("trial %d op %d: IndexOf(%d) = %d, want %d", trial, op, ref[i], got, i)
				}
				q.RemoveAt(i)
				ref = append(ref[:i], ref[i+1:]...)
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, q.Len(), len(ref))
			}
			for i, want := range ref {
				if got := q.At(i); got != want {
					t.Fatalf("trial %d op %d: At(%d) = %d, want %d", trial, op, i, got, want)
				}
			}
		}
	}
}

// TestEngineSteadyStateAllocs pins the tentpole claim at the engine
// level: after construction, driving a bag workload to completion
// allocates only the per-run bookkeeping (snapshot assembly is not
// measured here), not per-event garbage.
func TestEngineSteadyStateAllocs(t *testing.T) {
	pl := theorem1Platform()
	run := func(n int) float64 {
		tasks := core.Bag(n)
		return testing.AllocsPerRun(20, func() {
			e := New(pl, greedyFinish{}, tasks)
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Construction allocates a bounded number of slices (engine fields,
	// ledger, clones, the snapshot), so the per-run count is a constant;
	// what must NOT happen is allocation growing with the task count.
	// Before the refactor every event boxed through container/heap, so
	// doubling the workload added hundreds of allocations.
	small, large := run(60), run(240)
	if grown := large - small; grown > 10 {
		t.Fatalf("engine allocations grew by %.0f when the workload grew 60→240 tasks (want ~0: per-event allocation regression; base %.0f)",
			grown, small)
	}
}
