package main

// The layer ladder of the stream workloads (--trace 1). Every rung runs
// the same population under the same configuration and is timed from
// the benchmark, around calls into each module's public functions:
//
//	R0 http    the end-to-end rep itself, under a CPU profile
//	R1 router  the same lines in process into Router().SubmitRange of a
//	           schedd.Server, with default observability and bare
//	R2 exec    the whole population admitted into an unstarted cluster
//	           (intake bound lifted), then Start and Drain timed alone
//	R3 engine  sim.Simulate on each shard's platform and executed instance
//
// Differences between rungs give each layer's cost; see README.md.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/sim"
)

// profileHz is the CPU-profile sampling rate of traced runs: the default
// 100 Hz leaves too few samples in a seconds-long rung.
const profileHz = 500

// cpuProfile is a CPU profile being recorded into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	// Setting the rate first makes StartCPUProfile keep it (the runtime
	// prints a one-line note that the rate was already set).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each module's share of its samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	d, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(d), nil
}

// depthSampler samples the router's firehose depth every millisecond.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

func sampleDepth(srv *schedd.Server) (*depthSampler, func()) {
	d := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
				d.sum += float64(srv.Router().FirehoseDepth())
				d.n++
			}
		}
	}()
	return d, func() { close(d.stop); <-d.done }
}

func (d *depthSampler) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// routerRung is R1: the lines go in process into the service's router,
// then the service drains. It returns the CPU time of that window.
func routerRung(lines []line, jobs int, bare bool, t *tally) (time.Duration, error) {
	srv, err := schedd.New(serviceConfig(bare))
	if err != nil {
		return 0, err
	}
	r := srv.Router()
	cpu0 := cpuTime()
	next := 0
	for _, l := range lines {
		base, err := r.SubmitRange(l.spec(), l.count)
		t.check(baseMatches(base, next))
		if err != nil {
			break
		}
		next += l.count
	}
	derr := srv.Drain()
	cpu := cpuTime() - cpu0
	t.check(derr)
	checkService(t, srv, next)
	t.add(int64(jobs), int64(jobs-next), "jobs admitted in process")
	return cpu, nil
}

func baseMatches(base, want int) error {
	if base != want {
		return fmt.Errorf("SubmitRange base %d, want %d", base, want)
	}
	return nil
}

// execResult is what R2 measured.
type execResult struct {
	admit, exec, execCPU, admitCPU time.Duration
	events                         int64
	decideNs, decideCalls          int64
	validate                       time.Duration
	router                         *cluster.Router
}

// execRung is R2: admit the whole population into an unstarted firehose
// cluster with the intake bound lifted, then time Start → Drain alone.
func execRung(lines []line, jobs int, timer *decideTimer, t *tally) (execResult, error) {
	var events atomic.Int64
	r, err := cluster.New(cluster.Config{
		Platform:     benchPlatform(),
		NewScheduler: func() sim.Scheduler { return timer.wrap(sched.New("LS")) },
		Shards:       benchShards,
		Placement:    cluster.PlacementLeastLoaded,
		Partition:    core.PartitionBalanced,
		EventLogCap:  65536, // schedd's default retention
		World:        func(int) live.World { return live.NewVirtual() },
		Firehose:     &cluster.FirehoseConfig{QueueDepth: jobs},
		Observer:     func(int, live.Event) { events.Add(1) },
	})
	if err != nil {
		return execResult{}, err
	}
	var res execResult
	cpu0, t0 := cpuTime(), time.Now()
	next := 0
	for _, l := range lines {
		base, err := r.SubmitRange(l.spec(), l.count)
		t.check(baseMatches(base, next))
		if err != nil {
			break
		}
		next += l.count
	}
	res.admit, res.admitCPU = time.Since(t0), cpuTime()-cpu0
	cpu0, t0 = cpuTime(), time.Now()
	r.Start()
	derr := r.Drain()
	res.exec, res.execCPU = time.Since(t0), cpuTime()-cpu0
	t.check(derr)
	res.events = events.Load()
	res.decideNs, res.decideCalls = timer.totals()

	completed := 0
	var schedules []core.Schedule
	for _, sh := range r.Shards() {
		completed += sh.Tracker().CountsSnapshot().Completed
		schedules = append(schedules, sh.Result().Schedule)
	}
	v0 := time.Now()
	for i, s := range schedules {
		t.check(validShard(i, s))
	}
	res.validate = time.Since(v0)
	t.check(countsMatch(next, completed, jobs))
	res.router = r
	return res, nil
}

// engineRung is R3: the discrete-event engine on each shard's platform
// and executed instance — the engine floor for the same work. It returns
// the engine's wall time and the part of it spent in Decide.
func engineRung(r *cluster.Router, t *tally) (total, decide time.Duration) {
	var timer decideTimer
	for _, sh := range r.Shards() {
		tasks := sh.Result().Schedule.Instance.Tasks
		t0 := time.Now()
		s, err := sim.Simulate(sh.Platform(), timer.wrap(sched.New("LS")), tasks)
		total += time.Since(t0)
		t.check(err)
		if err == nil {
			t.add(int64(len(tasks)), int64(len(tasks)-len(s.Records)), "engine tasks completed")
		}
	}
	ns, _ := timer.totals()
	return total, time.Duration(ns)
}

// ladderReps is how many times each unprofiled rung runs; the ladder
// reports medians.
const ladderReps = 3

// runLadder is the traced run of a stream workload.
func runLadder(spec streamSpec, o options) (report, error) {
	var t tally
	lines := makeLines(spec, o.seed, 0)
	jobs := float64(spec.jobs)
	nLines := float64(len(lines))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }

	// R0 untraced: the reference for the differences and for the
	// profiler's overhead.
	var plainWall, plainCPU []float64
	for i := 0; i < ladderReps; i++ {
		st, err := streamRep(lines, spec.jobs, &t, nil)
		if err != nil {
			return report{}, err
		}
		plainWall = append(plainWall, st.wall.Seconds())
		plainCPU = append(plainCPU, us(st.cpu))
	}

	// R0 under the profiler, with the memory and intake samplers. The
	// window is instrumented through streamRep's hook, so set-up, the
	// forced collections and the checks stay outside it.
	var (
		depth  *depthSampler
		prof   *cpuProfile
		shares map[string]float64
		perr   error
		slab   [2]int64
		m0, m1 runtime.MemStats
	)
	r0, err := streamRep(lines, spec.jobs, &t, func(srv *schedd.Server) func() {
		runtime.ReadMemStats(&m0)
		prof, perr = startProfile()
		var stopDepth func()
		depth, stopDepth = sampleDepth(srv)
		return func() {
			stopDepth()
			if perr == nil {
				shares, perr = prof.stop()
			}
			runtime.ReadMemStats(&m1)
			gets, hits, _ := srv.Router().FirehoseSlabStats()
			slab = [2]int64{gets, hits}
		}
	})
	if err != nil {
		return report{}, err
	}
	if perr != nil {
		return report{}, fmt.Errorf("cpu profile: %w", perr)
	}

	// R1 default and bare, alternating so drift hits both alike; then R2
	// and, on the last R2 cluster, R3.
	var r1, r1Bare, admit, admitCPU, exec, execCPU, validate, decide []float64
	var last execResult
	for i := 0; i < ladderReps; i++ {
		for _, bare := range []bool{false, true} {
			cpu, err := routerRung(lines, spec.jobs, bare, &t)
			if err != nil {
				return report{}, err
			}
			if bare {
				r1Bare = append(r1Bare, us(cpu))
			} else {
				r1 = append(r1, us(cpu))
			}
		}
	}
	for i := 0; i < ladderReps; i++ {
		var timer decideTimer
		ex, err := execRung(lines, spec.jobs, &timer, &t)
		if err != nil {
			return report{}, err
		}
		admit = append(admit, ns(ex.admit))
		admitCPU = append(admitCPU, us(ex.admitCPU))
		exec = append(exec, ns(ex.exec))
		execCPU = append(execCPU, ns(ex.execCPU))
		validate = append(validate, ns(ex.validate))
		decide = append(decide, ratio(float64(ex.decideNs), float64(ex.decideCalls)))
		last = ex
	}
	engTotal, engDecide := engineRung(last.router, &t)

	m := map[string]float64{
		"schedd.wire_cpu_us_per_line":   (median(plainCPU) - median(r1)) / nLines,
		"obs.observer_cpu_us_per_job":   (median(r1) - median(r1Bare)) / jobs,
		"cluster.admit_ns_per_job":      median(admit) / jobs,
		"cluster.admit_ns_per_line":     median(admit) / nLines,
		"cluster.intake_cpu_us_per_job": (median(r1Bare) - median(admitCPU) - median(execCPU)/1e3) / jobs,
		"cluster.intake_depth_mean":     depth.mean(),
		"cluster.slab_hit_ratio":        ratio(float64(slab[1]), float64(slab[0])),
		"live.exec_ns_per_job":          median(exec) / jobs,
		"live.exec_cpu_ns_per_job":      median(execCPU) / jobs,
		"live.events_per_job":           float64(last.events) / jobs,
		"sim.engine_ns_per_job":         ns(engTotal) / jobs,
		"sim.engine_ns_per_task":        ns(engTotal-engDecide) / jobs,
		"core.validate_ns_per_task":     median(validate) / jobs,
		"sched.decide_ns":               median(decide),
		"sched.decide_ns.LS":            median(decide),
		"sched.decide_calls_per_job":    float64(last.decideCalls) / jobs,
		"go.allocs_per_job":             float64(m1.Mallocs-m0.Mallocs) / jobs,
		"go.gc_cycles":                  float64(m1.NumGC - m0.NumGC),
		"go.gc_pause_ms":                float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"trace.overhead_ratio":          r0.wall.Seconds() / median(plainWall),
	}
	for mod, share := range shares {
		m["cpu_share."+mod] = share
	}
	extra := map[string]metric{
		"r0.profiled_jobs_per_s": {jobs / r0.wall.Seconds(), "1/s"},
		"r0.jobs_per_s":          {jobs / median(plainWall), "1/s"},
		"error_rate":             {float64(t.failed) / float64(t.attempted), "ratio"},
	}
	reportErrors(t)
	return report{
		result: result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: perLayer(m)},
		Extra:  extra,
		Sizes:  streamSizes(spec),
	}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
