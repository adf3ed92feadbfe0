package main

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/sim"
)

// toyStream is small enough for a unit test.
var toyStream = streamSpec{jobs: 2_000, perLine: 100}

func TestMakeLinesIsSeeded(t *testing.T) {
	a, b := makeLines(toyStream, 5, 0), makeLines(toyStream, 5, 0)
	c := makeLines(toyStream, 6, 0)
	if len(a) != toyStream.lines() {
		t.Fatalf("%d lines, want %d", len(a), toyStream.lines())
	}
	same := func(x, y []line) bool {
		for i := range x {
			if string(x[i].body) != string(y[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed gave different lines")
	}
	if same(a, c) {
		t.Fatal("different seeds gave the same lines")
	}
}

func TestAckCheckerFires(t *testing.T) {
	lines := makeLines(toyStream, 1, 0) // 20 lines of 100 jobs
	ok := func(c *ackChecker, line, base int) error {
		return c.observe(schedd.StreamAck{Line: line, Base: base, Count: 100})
	}
	c := &ackChecker{lines: lines}
	for i := 0; i < len(lines); i++ {
		if err := ok(c, i+1, i*100); err != nil {
			t.Fatalf("in-order ack %d rejected: %v", i+1, err)
		}
	}
	if c.jobs != toyStream.jobs || c.acked != len(lines) {
		t.Fatalf("checker counted %d lines / %d jobs", c.acked, c.jobs)
	}
	cases := map[string]func(*ackChecker) error{
		"out of order": func(c *ackChecker) error { return ok(c, 2, 0) },
		"gap":          func(c *ackChecker) error { _ = ok(c, 1, 0); return ok(c, 2, 101) },
		"repeat":       func(c *ackChecker) error { _ = ok(c, 1, 0); return ok(c, 2, 99) },
		"wrong count": func(c *ackChecker) error {
			return c.observe(schedd.StreamAck{Line: 1, Base: 0, Count: 99})
		},
		"error ack": func(c *ackChecker) error {
			return c.observe(schedd.StreamAck{Line: 1, Error: "draining"})
		},
		"extra ack": func(c *ackChecker) error {
			c.lines = lines[:1]
			_ = ok(c, 1, 0)
			return ok(c, 2, 100)
		},
	}
	for name, fn := range cases {
		if err := fn(&ackChecker{lines: lines}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCountsAndScheduleChecksFire(t *testing.T) {
	if countsMatch(10, 10, 10) != nil {
		t.Fatal("matching counts rejected")
	}
	for _, c := range [][3]int{{10, 9, 10}, {9, 9, 10}, {10, 10, 11}} {
		if countsMatch(c[0], c[1], c[2]) == nil {
			t.Errorf("counts %v accepted", c)
		}
	}
	s, err := sim.Simulate(benchPlatform(), sched.New("LS"), core.Bag(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := validShard(0, s); err != nil {
		t.Fatalf("engine schedule rejected: %v", err)
	}
	s.Records[3].Complete = s.Records[3].Start - 1
	if validShard(0, s) == nil {
		t.Fatal("schedule completing before it starts accepted")
	}
}

func TestTallyCounts(t *testing.T) {
	var tl tally
	tl.check(nil)
	tl.check(errors.New("x"))
	tl.add(10, 3, "jobs")
	if tl.attempted != 12 || tl.failed != 4 || len(tl.errs) != 2 {
		t.Fatalf("tally = %+v", tl)
	}
}

// TestToyStreamRep runs the real stream path at toy scale: the checks
// pass on correct code, and a line the service must refuse makes them
// fail.
func TestToyStreamRep(t *testing.T) {
	var tl tally
	st, err := streamRep(makeLines(toyStream, 1, 0), toyStream.jobs, &tl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("toy rep: %d of %d failed: %v", tl.failed, tl.attempted, tl.errs)
	}
	if st.wall <= 0 || st.cpu <= 0 {
		t.Fatalf("toy rep measured nothing: %+v", st)
	}

	// A negative count is refused with an error ack: the line and every
	// line after it go unacked.
	lines := makeLines(toyStream, 1, 0)
	lines[5] = line{body: []byte(`{"count":-1}` + "\n"), count: 100}
	var bad tally
	if _, err := streamRep(lines, toyStream.jobs, &bad, nil); err != nil {
		t.Fatal(err)
	}
	if bad.failed == 0 {
		t.Fatal("a refused line did not fail any check")
	}
	if !strings.Contains(strings.Join(bad.errs, "\n"), "error ack") {
		t.Fatalf("no error-ack failure recorded: %v", bad.errs)
	}
}

func TestToyLadderRungs(t *testing.T) {
	lines := makeLines(toyStream, 2, 0)
	var tl tally
	if _, err := routerRung(lines, toyStream.jobs, true, &tl); err != nil {
		t.Fatal(err)
	}
	var timer decideTimer
	ex, err := execRung(lines, toyStream.jobs, &timer, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if ex.events < int64(4*toyStream.jobs) || ex.decideCalls == 0 {
		t.Fatalf("exec rung counted %d events, %d decisions", ex.events, ex.decideCalls)
	}
	if total, decide := engineRung(ex.router, &tl); total <= 0 || decide <= 0 || decide > total {
		t.Fatalf("engine rung: total %v, decide %v", total, decide)
	}
	if tl.failed != 0 {
		t.Fatalf("rungs: %d of %d failed: %v", tl.failed, tl.attempted, tl.errs)
	}
}

func TestSweepChecksFire(t *testing.T) {
	cfg, _ := sweepSetup(4, 2)
	cfg.Platforms, cfg.Tasks = 2, 60
	a, err := sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	checkSweep(&tl, a, cfg)
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("toy sweep: %d of %d failed: %v", tl.failed, tl.attempted, tl.errs)
	}

	cfg.Workers = 1
	b, err := sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(a, b); err != nil {
		t.Fatalf("workers 1 vs 2: %v", err)
	}

	// Move one value by one ulp: the determinism check must notice. Then
	// make it NaN: the finiteness check must notice.
	var key string
	for k := range b.fig2.Raw.Cells[0].Values {
		key = k
		break
	}
	v := b.fig2.Raw.Cells[0].Values[key]
	b.fig2.Raw.Cells[0].Values[key] = math.Nextafter(v, math.Inf(1))
	if sameBits(a, b) == nil {
		t.Error("sweep perturbed by one ulp compared equal")
	}
	b.fig2.Raw.Cells[0].Values[key] = math.NaN()
	var bad tally
	checkSweep(&bad, b, cfg)
	if bad.failed != 1 {
		t.Errorf("NaN cell: %d failures, want 1", bad.failed)
	}

	// A missing cell and a missing value.
	b.fig1[0].Raw.Cells = b.fig1[0].Raw.Cells[:1]
	for k := range b.fig1[1].Raw.Cells[0].Values {
		delete(b.fig1[1].Raw.Cells[0].Values, k)
		break
	}
	bad = tally{}
	checkSweep(&bad, b, cfg)
	if bad.failed != 3 {
		t.Errorf("NaN, missing cell and missing value: %d failures, want 3: %v", bad.failed, bad.errs)
	}
}

func TestEngineSweepRung(t *testing.T) {
	_, cells := sweepSetup(5, 1)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	var tl tally
	st := engineSweep(cells[:2], &tl, 80)
	if tl.failed != 0 {
		t.Fatalf("engine rung: %v", tl.errs)
	}
	for _, name := range sched.Names() {
		if st.decideByName[name] <= 0 {
			t.Errorf("%s: no Decide time", name)
		}
	}
	if st.decide <= 0 || st.decide > st.run || st.tasks != int64(2*80*len(sched.Names())) {
		t.Fatalf("engine rung: %+v", st)
	}
}
