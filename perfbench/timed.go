package main

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// timedScheduler decorates a sim.Scheduler and accumulates the wall time
// and number of its Decide calls. It forwards every call unchanged, so a
// decorated run decides exactly what a plain run decides (see
// TestTimedSchedulerIsTransparent). One instance serves one engine or
// one shard master, which call Decide from a single goroutine; read the
// totals only after that run has returned or drained.
type timedScheduler struct {
	inner sim.Scheduler
	ns    int64
	calls int64
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Reset(pl core.Platform) { t.inner.Reset(pl) }

func (t *timedScheduler) Decide(v sim.View) sim.Action {
	start := time.Now()
	a := t.inner.Decide(v)
	t.ns += int64(time.Since(start))
	t.calls++
	return a
}

// decideTimer hands out timed schedulers and sums their totals.
type decideTimer struct {
	mu   sync.Mutex
	made []*timedScheduler
}

// wrap decorates s and keeps it for the totals.
func (d *decideTimer) wrap(s sim.Scheduler) sim.Scheduler {
	t := &timedScheduler{inner: s}
	d.mu.Lock()
	d.made = append(d.made, t)
	d.mu.Unlock()
	return t
}

// totals returns the summed Decide time and call count.
func (d *decideTimer) totals() (ns, calls int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.made {
		ns += t.ns
		calls += t.calls
	}
	return ns, calls
}
