package main

// The paper-sweep workload: experiment.Figure1 on all four platform
// classes plus experiment.Figure2, at the paper's 1000 tasks and 5
// slaves, with more platforms than the paper's 10 to lengthen the run.
// The unit of work ("job") is one task scheduled in one simulation.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
)

const (
	sweepPlatforms = 100
	sweepTasks     = 1000
	sweepSlaves    = 5
	// engineRungPlatforms bounds the traced engine rung to the first
	// platforms of each class, so the traced run stays short.
	engineRungPlatforms = 25
)

var platformClasses = []core.Class{core.Homogeneous, core.CommHomogeneous, core.CompHomogeneous, core.Heterogeneous}

func sweepConfig(seed int64, workers int) experiment.Config {
	return experiment.Config{Platforms: sweepPlatforms, Tasks: sweepTasks, M: sweepSlaves, Seed: seed, Workers: workers}
}

// sweepJobs is the number of tasks one sweep schedules: every Figure-1
// platform simulates each heuristic once (SRPT doubling as the baseline)
// and every Figure-2 platform simulates each heuristic twice (perturbed
// and nominal).
func sweepJobs() int {
	n := len(sched.Names())
	return sweepPlatforms * sweepTasks * (len(platformClasses)*n + 2*n)
}

// sweepCell is one generated Figure-1 input: a class and a platform.
type sweepCell struct {
	class core.Class
	pl    core.Platform
}

// sweepSetup builds the sweep's configuration and draws every Figure-1
// platform from the same seeds the sweep uses.
func sweepSetup(seed int64, workers int) (experiment.Config, []sweepCell) {
	cfg := sweepConfig(seed, workers)
	cells := make([]sweepCell, 0, len(platformClasses)*cfg.Platforms)
	for _, class := range platformClasses {
		for p := 0; p < cfg.Platforms; p++ {
			key := fmt.Sprintf("fig1/%v/platform=%03d", class, p)
			pl := core.Random(runner.RNG(cfg.Seed, key+"/platform"), class, core.GenConfig{M: cfg.M})
			cells = append(cells, sweepCell{class: class, pl: pl})
		}
	}
	return cfg, cells
}

// sweepOut is one sweep's results.
type sweepOut struct {
	fig1 []experiment.Figure1Result
	fig2 experiment.Figure2Result
}

// raws lists every runner.Result of the sweep.
func (o sweepOut) raws() []runner.Result {
	var rs []runner.Result
	for _, f := range o.fig1 {
		rs = append(rs, f.Raw)
	}
	return append(rs, o.fig2.Raw)
}

// sweep runs the whole sweep. The experiment package panics on a failed
// cell; that is reported as an error.
func sweep(cfg experiment.Config) (out sweepOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sweep: %v", p)
		}
	}()
	for _, class := range platformClasses {
		out.fig1 = append(out.fig1, experiment.Figure1(class, cfg))
	}
	out.fig2 = experiment.Figure2(cfg)
	return out, nil
}

// checkSweep checks that every cell of every result is present and that
// each holds one finite value per scheduler and objective.
func checkSweep(t *tally, out sweepOut, cfg experiment.Config) {
	want := len(sched.Names()) * len(core.Objectives)
	for _, r := range out.raws() {
		t.check(cellCount(r, cfg.Platforms))
		for _, c := range r.Cells {
			t.check(cellFinite(r.Experiment, c, want))
		}
	}
}

func cellCount(r runner.Result, platforms int) error {
	if len(r.Cells) != platforms {
		return fmt.Errorf("%s: %d cells, want %d", r.Experiment, len(r.Cells), platforms)
	}
	return nil
}

func cellFinite(experiment string, c runner.Cell, want int) error {
	if len(c.Values) != want {
		return fmt.Errorf("%s %s: %d values, want %d", experiment, c.Key, len(c.Values), want)
	}
	for k, v := range c.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s %s: %s = %v", experiment, c.Key, k, v)
		}
	}
	return nil
}

// sameBits reports whether two sweeps produced bit-identical results
// (the determinism contract across worker counts). The canonical JSON
// encoding round-trips every float exactly, so equal bytes mean equal
// bits.
func sameBits(a, b sweepOut) error {
	ra, rb := a.raws(), b.raws()
	if len(ra) != len(rb) {
		return fmt.Errorf("determinism: %d results against %d", len(ra), len(rb))
	}
	for i := range ra {
		ja, err := runner.EncodeJSON(ra[i].Canonical())
		if err != nil {
			return err
		}
		jb, err := runner.EncodeJSON(rb[i].Canonical())
		if err != nil {
			return err
		}
		if !bytes.Equal(ja, jb) {
			return fmt.Errorf("determinism: %s differs between worker counts", ra[i].Experiment)
		}
	}
	return nil
}

// sweepRepStats is what one timed sweep measured.
type sweepRepStats struct {
	setup, wall, cpu time.Duration
	retained         float64
	out              sweepOut
}

// sweepRep runs one timed sweep and records its checks in t. hook, when
// set, runs around the measured window (the traced run profiles it).
func sweepRep(seed int64, workers int, t *tally, hook func() func()) sweepRepStats {
	base := heapAfterGC()
	s0 := time.Now()
	cfg, _ := sweepSetup(seed, workers)
	setup := time.Since(s0)
	var stop func()
	if hook != nil {
		stop = hook()
	}
	cpu0, t0 := cpuTime(), time.Now()
	out, err := sweep(cfg)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if stop != nil {
		stop()
	}
	retained := (float64(heapAfterGC()) - float64(base)) / float64(sweepJobs())
	t.check(err)
	checkSweep(t, out, cfg)
	return sweepRepStats{setup: setup, wall: wall, cpu: cpu, retained: retained, out: out}
}

// runSweep is the untraced (or, with o.trace, the ladder) run of
// paper-sweep.
func runSweep(o options) (report, error) {
	if o.trace {
		return runSweepLadder(o)
	}
	var (
		t                                tally
		setup, rate, cpu, retained, wall []float64
		cpuS                             []float64
	)
	jobs := float64(sweepJobs())
	deadline := time.Now().Add(o.budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		st := sweepRep(o.seed, runtime.NumCPU(), &t, nil)
		setup = append(setup, st.setup.Seconds())
		rate = append(rate, jobs/st.wall.Seconds())
		cpu = append(cpu, float64(st.cpu.Nanoseconds())/1e3/jobs)
		retained = append(retained, st.retained)
		wall = append(wall, st.wall.Seconds())
		cpuS = append(cpuS, st.cpu.Seconds())
		fmt.Fprintf(os.Stderr, "# rep %d: %.0f jobs/s, %.4f us/job cpu, sweep %.3fs, setup %.4fs\n",
			rep, rate[rep], cpu[rep], st.wall.Seconds(), setup[rep])
	}
	reportErrors(t)
	return report{
		result: result{
			Correct:   t.failed == 0,
			Attempted: t.attempted,
			Failed:    t.failed,
			Metrics: endToEndMetrics(map[string]float64{
				"jobs_per_s":                  median(rate),
				"cpu_us_per_job":              median(cpu),
				"heap_retained_bytes_per_job": median(retained),
				"setup_s":                     median(setup),
			}),
		},
		Extra: map[string]metric{
			"sweep_s":     {median(wall), "s"},
			"sweep_cpu_s": {median(cpuS), "s"},
			"error_rate":  {float64(t.failed) / float64(t.attempted), "ratio"},
			"reps":        {float64(len(rate)), "count"},
		},
		Sizes: sweepSizes(),
	}, nil
}

func sweepSizes() map[string]int {
	return map[string]int{"platforms": sweepPlatforms, "tasks": sweepTasks, "slaves": sweepSlaves, "jobs": sweepJobs(), "workers": runtime.NumCPU(), "engine_rung_platforms": engineRungPlatforms}
}

// schedulerFor builds a heuristic the way the sweep does: the SLJF
// planners are told the true task count.
func schedulerFor(name string, n int) sim.Scheduler {
	switch name {
	case "SLJF":
		return sched.NewSLJF(n)
	case "SLJFWC":
		return sched.NewSLJFWC(n)
	default:
		return sched.New(name)
	}
}

// engineSweepStats is what the sweep's engine rung measured.
type engineSweepStats struct {
	tasks        int64
	run, decide  time.Duration
	calls        int64
	validate     time.Duration
	decideByName map[string]float64 // ns per Decide call
}

// engineSweep is the sweep's engine rung: sim.New(...).Run() on the
// first engineRungPlatforms cells of each class, with a bag of n tasks,
// for every heuristic. Each heuristic's Decide time is measured by the
// timing decorator, then core.ValidateSchedule runs on each schedule.
func engineSweep(cells []sweepCell, t *tally, n int) engineSweepStats {
	st := engineSweepStats{decideByName: map[string]float64{}}
	timers := map[string]*decideTimer{}
	for _, name := range sched.Names() {
		timers[name] = &decideTimer{}
	}
	perClass := map[core.Class]int{}
	for _, c := range cells {
		if perClass[c.class] >= engineRungPlatforms {
			continue
		}
		perClass[c.class]++
		for _, name := range sched.Names() {
			tasks := core.Bag(n)
			e := sim.New(c.pl, timers[name].wrap(schedulerFor(name, n)), tasks)
			t0 := time.Now()
			s, err := e.Run()
			st.run += time.Since(t0)
			t.check(err)
			if err != nil {
				continue
			}
			v0 := time.Now()
			t.check(core.ValidateSchedule(s))
			st.validate += time.Since(v0)
			st.tasks += int64(len(tasks))
		}
	}
	for name, tm := range timers {
		ns, calls := tm.totals()
		st.decide += time.Duration(ns)
		st.calls += calls
		st.decideByName[name] = ratio(float64(ns), float64(calls))
	}
	return st
}

// runSweepLadder is the traced run of paper-sweep.
func runSweepLadder(o options) (report, error) {
	var t tally
	nproc := runtime.NumCPU()
	jobs := float64(sweepJobs())

	plain := sweepRep(o.seed, nproc, &t, nil)
	var (
		prof   *cpuProfile
		shares map[string]float64
		perr   error
		m0, m1 runtime.MemStats
	)
	r0 := sweepRep(o.seed, nproc, &t, func() func() {
		runtime.ReadMemStats(&m0)
		prof, perr = startProfile()
		return func() {
			if perr == nil {
				shares, perr = prof.stop()
			}
			runtime.ReadMemStats(&m1)
		}
	})
	if perr != nil {
		return report{}, fmt.Errorf("cpu profile: %w", perr)
	}
	serial := sweepRep(o.seed, 1, &t, nil)
	t.check(sameBits(serial.out, plain.out))

	_, cells := sweepSetup(o.seed, nproc)
	eng := engineSweep(cells, &t, sweepTasks)
	tasks := float64(eng.tasks)

	m := map[string]float64{
		"runner.parallel_efficiency": serial.wall.Seconds() / (plain.wall.Seconds() * float64(nproc)),
		"sim.engine_ns_per_job":      float64(eng.run.Nanoseconds()) / tasks,
		"sim.engine_ns_per_task":     float64((eng.run - eng.decide).Nanoseconds()) / tasks,
		"core.validate_ns_per_task":  float64(eng.validate.Nanoseconds()) / tasks,
		"sched.decide_ns":            ratio(float64(eng.decide.Nanoseconds()), float64(eng.calls)),
		"sched.decide_calls_per_job": float64(eng.calls) / tasks,
		"go.allocs_per_job":          float64(m1.Mallocs-m0.Mallocs) / jobs,
		"go.gc_cycles":               float64(m1.NumGC - m0.NumGC),
		"go.gc_pause_ms":             float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"trace.overhead_ratio":       r0.wall.Seconds() / plain.wall.Seconds(),
	}
	for name, ns := range eng.decideByName {
		m["sched.decide_ns."+name] = ns
	}
	for mod, share := range shares {
		m["cpu_share."+mod] = share
	}
	reportErrors(t)
	return report{
		result: result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: perLayer(m)},
		Extra: map[string]metric{
			"sweep_s":          {plain.wall.Seconds(), "s"},
			"sweep_s.workers1": {serial.wall.Seconds(), "s"},
			"error_rate":       {float64(t.failed) / float64(t.attempted), "ratio"},
		},
		Sizes: sweepSizes(),
	}, nil
}
