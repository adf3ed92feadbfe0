package sim

// Driver is the master-side half of the one-port model. Every concrete
// master — the discrete-event Engine, the message-passing emulation in
// internal/mpiexp and the concurrent live runtime in internal/live —
// drives a Scheduler through this one bookkeeping: the registered task
// list, the pending (released, unsent) queue, the dispatch Ledger,
// per-task schedule records, master-known slave liveness, and the
// observation feed of actual send/computation durations.
//
// The Driver holds exactly the state a real master can know. The
// substrate that owns ground truth (the engine's event heap, goroutine
// workers, or a physical cluster) tells it about releases, dispatch
// decisions, arrivals, completions and failures, and the Driver exposes
// the scheduler-visible projection of that state as the View. The same
// unmodified Scheduler implementations therefore run on every substrate
// and, on deterministic substrates, make identical decisions bit for bit.

import (
	"fmt"

	"repro/internal/core"
)

// Driver is master-side bookkeeping for one run. It is not safe for
// concurrent use: all mutation must come from the single master loop.
type Driver struct {
	pl      core.Platform
	now     func() float64
	tasks   []core.Task
	records []core.Record
	pending taskFIFO // released, unsent task indices, FIFO
	sent    []bool
	done    []bool
	alive   []bool // per slave: accepts sends
	ledger  *Ledger
	obsComm []ewma // observed send durations per slave
	obsComp []ewma // observed computation durations per slave

	released  int
	completed int
	lost      int // attempts destroyed by slave failures
	retracted int
	view      driverView
}

// NewDriver creates bookkeeping for a master serving the given platform.
// The now function supplies the substrate's current time; the View and
// validation messages use it.
func NewDriver(pl core.Platform, now func() float64) *Driver {
	return newDriver(pl, now, 0)
}

// newDriver is NewDriver with room reserved for n tasks: a run that
// registers at most n tasks never grows the per-task slices.
func newDriver(pl core.Platform, now func() float64, n int) *Driver {
	m := pl.M()
	d := &Driver{
		pl:      pl.Clone(),
		now:     now,
		tasks:   make([]core.Task, 0, n),
		records: make([]core.Record, 0, n),
		sent:    make([]bool, 0, n),
		done:    make([]bool, 0, n),
		alive:   make([]bool, m),
		ledger:  NewLedger(m),
		obsComm: make([]ewma, m),
		obsComp: make([]ewma, m),
	}
	for j := range d.alive {
		d.alive[j] = true
	}
	d.pending.grow(n)
	d.view.d = d
	return d
}

// Register records a task the master knows about without releasing it:
// the engine registers its whole initial workload, and every injected
// task, before the release date arrives. Task IDs are assigned densely in
// registration order (the Release field is kept as given). The assigned
// ID is returned.
func (d *Driver) Register(task core.Task) core.TaskID {
	idx := len(d.tasks)
	task.ID = core.TaskID(idx)
	d.tasks = append(d.tasks, task)
	d.records = append(d.records, core.Record{Task: task.ID, Slave: -1, Release: task.Release})
	d.sent = append(d.sent, false)
	d.done = append(d.done, false)
	return task.ID
}

// Release appends a registered task to the pending queue.
func (d *Driver) Release(id core.TaskID) {
	d.pending.Push(int(id))
	d.released++
}

// Admit registers and releases a task the master just learned about:
// for streaming masters the Release field is the moment the submission
// arrived. The assigned ID is returned.
func (d *Driver) Admit(task core.Task) core.TaskID {
	id := d.Register(task)
	d.Release(id)
	return id
}

// MarkSent validates and records a dispatch decision made at the current
// time: the task leaves the pending queue, its send start is stamped, and
// the ledger predicts its arrival with the nominal link cost. Scheduler
// protocol violations (unknown task, unknown slave, re-send, unreleased
// task) are programming errors and panic.
func (d *Driver) MarkSent(scheduler string, task core.TaskID, j int) {
	d.send(d.checkSend(scheduler, task, j), j)
}

// checkSend panics on a scheduler protocol violation and otherwise
// returns the task's position in the pending queue.
func (d *Driver) checkSend(scheduler string, task core.TaskID, j int) int {
	idx := int(task)
	if idx < 0 || idx >= len(d.tasks) {
		panic(fmt.Sprintf("sim: scheduler %s sent unknown task %d", scheduler, task))
	}
	if j < 0 || j >= d.pl.M() {
		panic(fmt.Sprintf("sim: scheduler %s used unknown slave %d", scheduler, j))
	}
	if d.sent[idx] {
		panic(fmt.Sprintf("sim: scheduler %s re-sent task %d", scheduler, task))
	}
	pos := d.pending.IndexOf(idx)
	if pos < 0 {
		panic(fmt.Sprintf("sim: scheduler %s sent unreleased task %d at %v", scheduler, task, d.now()))
	}
	return pos
}

// send commits the checked dispatch of the task at pending position pos
// to slave j.
func (d *Driver) send(pos, j int) {
	idx := d.pending.At(pos)
	d.pending.RemoveAt(pos)
	d.sent[idx] = true
	now := d.now()
	d.records[idx].Slave = j
	d.records[idx].SendStart = now
	d.ledger.Assign(j, idx, now+d.pl.C[j])
}

// MarkArrived records the observed send completion: the master
// experiences its own port, so the actual transfer duration feeds the
// observation stream and corrects the ledger's arrival prediction.
func (d *Driver) MarkArrived(task core.TaskID, j int, at float64) {
	idx := int(task)
	d.records[idx].Arrive = at
	d.obsComm[j].observe(at - d.records[idx].SendStart)
	d.ledger.Arrived(j, idx, at)
}

// MarkStarted records that the task's computation began at the given
// time. A master told only about completions can skip it; the engine
// stamps it so that an attempt destroyed mid-computation keeps its Start.
func (d *Driver) MarkStarted(task core.TaskID, at float64) {
	d.records[task].Start = at
}

// MarkCompleted records a completion notification carrying the slave's
// reported computation window. The actual computation duration feeds the
// observation stream.
func (d *Driver) MarkCompleted(task core.TaskID, j int, start, complete float64) {
	idx := int(task)
	d.records[idx].Start = start
	d.records[idx].Complete = complete
	d.done[idx] = true
	d.completed++
	d.obsComp[j].observe(complete - start)
	d.ledger.Completed(j, idx, complete)
}

// MarkFailed records that slave j failed at the given time: it stops
// accepting sends, its ledger backlog is cleared, and every attempt it
// held (sent, neither completed nor already lost) is marked Lost. The
// lost attempts are returned in task-ID order.
func (d *Driver) MarkFailed(j int, at float64) []core.TaskID {
	d.alive[j] = false
	var lost []core.TaskID
	for idx := range d.tasks {
		if d.sent[idx] && !d.done[idx] && !d.records[idx].Lost && d.records[idx].Slave == j {
			d.records[idx].Lost = true
			d.lost++
			lost = append(lost, core.TaskID(idx))
		}
	}
	d.ledger.Fail(j, at)
	return lost
}

// MarkRecovered records that slave j came back, idle, at the given time.
func (d *Driver) MarkRecovered(j int, at float64) {
	d.alive[j] = true
	d.ledger.Sync(j, at)
}

// AddSlave appends a slave with the given nominal costs, alive and idle
// from the given time, and returns its index.
func (d *Driver) AddSlave(c, p, at float64) int {
	d.pl.C = append(d.pl.C, c)
	d.pl.P = append(d.pl.P, p)
	d.alive = append(d.alive, true)
	d.obsComm = append(d.obsComm, ewma{})
	d.obsComp = append(d.obsComp, ewma{})
	d.ledger.AddSlave(at)
	return d.pl.M() - 1
}

// RetractNewest removes up to n tasks from the BACK of the pending queue
// and returns them in retraction order (newest first). Retraction is the
// master-side half of cross-shard work stealing: the thief takes the
// youngest backlog — the work-stealing-deque discipline — so the jobs
// the owner is about to dispatch (the FIFO front) keep their position
// and the migrated jobs are the ones that would have waited longest.
// A retracted task stays admitted (IDs remain dense) but is permanently
// out of the pending queue: it can never be sent here, its record keeps
// zero dispatch fields, and Done+Retracted==Admitted is the completion
// condition for masters that allow stealing.
func (d *Driver) RetractNewest(n int) []core.Task {
	if n > d.pending.Len() {
		n = d.pending.Len()
	}
	if n <= 0 {
		return nil
	}
	out := make([]core.Task, 0, n)
	for i := 0; i < n; i++ {
		last := d.pending.Len() - 1
		idx := d.pending.At(last)
		d.pending.RemoveAt(last)
		d.retracted++
		out = append(out, d.tasks[idx])
	}
	return out
}

// Admitted returns the number of tasks registered so far, released or
// not.
func (d *Driver) Admitted() int { return len(d.tasks) }

// Retracted returns the number of tasks retracted by RetractNewest.
func (d *Driver) Retracted() int { return d.retracted }

// Done returns the number of completed tasks.
func (d *Driver) Done() int { return d.completed }

// PendingCount returns the number of released, unsent tasks.
func (d *Driver) PendingCount() int { return d.pending.Len() }

// Task returns a registered task by ID.
func (d *Driver) Task(id core.TaskID) core.Task { return d.tasks[id] }

// Platform returns the nominal platform the master believes in.
func (d *Driver) Platform() core.Platform { return d.pl }

// View returns the scheduler-visible projection of the master's state.
func (d *Driver) View() View { return &d.view }

// Schedule assembles the schedule recorded so far. On a completed run it
// is a full, validatable core.Schedule; mid-run, records of unfinished
// tasks have zero fields.
func (d *Driver) Schedule() core.Schedule {
	inst := core.Instance{Platform: d.pl.Clone(), Tasks: append([]core.Task(nil), d.tasks...)}
	return core.Schedule{Instance: inst, Records: append([]core.Record(nil), d.records...)}
}

// driverView is the View: the one implementation every substrate hands
// to its Scheduler.
type driverView struct {
	d *Driver
}

// Now returns the current time.
func (v *driverView) Now() float64 { return v.d.now() }

// M returns the number of slaves.
func (v *driverView) M() int { return v.d.pl.M() }

// Comm returns the nominal communication time c_j.
func (v *driverView) Comm(j int) float64 { return v.d.pl.C[j] }

// Comp returns the nominal computation time p_j.
func (v *driverView) Comp(j int) float64 { return v.d.pl.P[j] }

// PendingCount returns the number of released, unsent tasks.
func (v *driverView) PendingCount() int { return v.d.pending.Len() }

// PendingAt returns the i-th pending task in release (FIFO) order.
func (v *driverView) PendingAt(i int) core.TaskID { return core.TaskID(v.d.pending.At(i)) }

// FirstPending returns the oldest pending task.
func (v *driverView) FirstPending() (core.TaskID, bool) {
	t, ok := v.d.pending.Front()
	return core.TaskID(t), ok
}

// Release returns the release time of a task.
func (v *driverView) Release(task core.TaskID) float64 { return v.d.tasks[task].Release }

// Outstanding returns the number of tasks assigned to slave j and not yet
// completed (in flight, queued, or computing).
func (v *driverView) Outstanding(j int) int { return v.d.ledger.Outstanding(j) }

// ReadyEstimate returns the master's nominal-cost estimate of when slave
// j will drain its outstanding backlog.
func (v *driverView) ReadyEstimate(j int) float64 { return v.d.ledger.Ready(j, v.d.pl.P[j]) }

// PredictFinish estimates the completion time of a task sent to slave j
// right now, under nominal costs: the send occupies [now, now+c_j], the
// computation starts when both the task has arrived and the slave is
// free. The max is spelled out (finite operands) — this runs once per
// slave per list-scheduler decision.
func (v *driverView) PredictFinish(j int) float64 {
	start := v.d.now() + v.d.pl.C[j]
	if ready := v.ReadyEstimate(j); ready > start {
		start = ready
	}
	return start + v.d.pl.P[j]
}

// ReleasedCount returns how many tasks have been released so far.
func (v *driverView) ReleasedCount() int { return v.d.released }

// CompletedCount returns how many tasks have finished.
func (v *driverView) CompletedCount() int { return v.d.completed }

// Alive reports whether slave j currently accepts sends.
func (v *driverView) Alive(j int) bool { return v.d.alive[j] }

// ObservedComm returns the smoothed actual send duration to slave j.
func (v *driverView) ObservedComm(j int) (float64, bool) {
	o := v.d.obsComm[j]
	return o.mean, o.seen
}

// ObservedComp returns the smoothed actual computation duration on j.
func (v *driverView) ObservedComp(j int) (float64, bool) {
	o := v.d.obsComp[j]
	return o.mean, o.seen
}
