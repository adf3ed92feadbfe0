package main

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestTimedSchedulerIsTransparent: the timing decorator cannot change
// behaviour — for every registered scheduler on every platform class,
// decorated and plain runs produce identical schedules, on a bag of
// tasks and on a perturbed Poisson stream.
func TestTimedSchedulerIsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	workloads := map[string][]core.Task{
		"bag": core.Bag(150),
		"poisson": workload.Generate(rng, workload.Config{
			N: 150, Pattern: workload.Poisson, Rate: 2, Perturb: 0.1,
		}),
	}
	for _, class := range platformClasses {
		pl := core.Random(rand.New(rand.NewSource(int64(class)+11)), class, core.GenConfig{M: 5})
		for wname, tasks := range workloads {
			for _, name := range sched.ExtendedNames() {
				plain, err := sim.Simulate(pl, sched.New(name), tasks)
				if err != nil {
					t.Fatalf("%v/%s/%s plain: %v", class, wname, name, err)
				}
				var timer decideTimer
				timed, err := sim.Simulate(pl, timer.wrap(sched.New(name)), tasks)
				if err != nil {
					t.Fatalf("%v/%s/%s timed: %v", class, wname, name, err)
				}
				if !reflect.DeepEqual(plain, timed) {
					t.Errorf("%v/%s/%s: decorated schedule differs from plain", class, wname, name)
				}
				if _, calls := timer.totals(); calls == 0 {
					t.Errorf("%v/%s/%s: no Decide calls counted", class, wname, name)
				}
			}
		}
	}
}

func TestTimedSchedulerForwardsName(t *testing.T) {
	var timer decideTimer
	if got := timer.wrap(sched.New("SRPT")).Name(); got != sched.New("SRPT").Name() {
		t.Fatalf("Name() = %q", got)
	}
}
