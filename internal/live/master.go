package live

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
)

// EventKind labels runtime events.
type EventKind int

const (
	// EvSubmitted marks a job entering the master's pending queue.
	EvSubmitted EventKind = iota
	// EvSent marks the master acquiring the port for a dispatch.
	EvSent
	// EvArrived marks a transfer completing (the task is at the slave).
	EvArrived
	// EvStarted marks the slave beginning the computation (reported
	// retroactively with the completion notification, like a real
	// master learns it).
	EvStarted
	// EvCompleted marks the computation finishing.
	EvCompleted
	// EvRetracted marks a pending job leaving this master's queue via a
	// steal (it will be re-admitted on another runtime; see
	// Runtime.StealPending).
	EvRetracted
)

// String returns the event kind's wire name.
func (k EventKind) String() string {
	switch k {
	case EvSubmitted:
		return "submitted"
	case EvSent:
		return "sent"
	case EvArrived:
		return "arrived"
	case EvStarted:
		return "started"
	case EvCompleted:
		return "completed"
	case EvRetracted:
		return "retracted"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the runtime's event log, emitted by the master in
// the order it learned things. The log is convertible to a core.Schedule
// (each task's events fill its record); Observer callbacks receive the
// same stream live.
type Event struct {
	T     float64   `json:"t"`
	Kind  EventKind `json:"kind"`
	Task  int       `json:"task"`
	Slave int       `json:"slave"` // -1 while unassigned
}

// program is the actor code shared by both substrates: one master, m
// slaves. All scheduling state lives in the master actor; the mutex only
// guards the event log, which outside observers may snapshot mid-run.
type program struct {
	cfg      Config
	pl       core.Platform
	drv      *sim.Driver
	slaveID  []int
	masterID int
	draining bool

	// Lock-free progress counters behind Runtime.Load(): placement
	// policies poll them per job, so they must not contend with the
	// master actor or the event-log mutex.
	admitted   atomic.Int64
	dispatched atomic.Int64
	completed  atomic.Int64
	retracted  atomic.Int64

	// Event log: unbounded append with EventLogCap 0, else a
	// preallocated ring of the newest logCap events. logTotal counts
	// every recorded event; with a ring, logTotal − len(log) events have
	// been overwritten (the drop counter the serving layer exposes).
	logMu    sync.Mutex
	log      []Event
	logCap   int
	logTotal uint64
}

func newProgram(cfg Config) *program {
	p := &program{
		cfg:     cfg,
		pl:      cfg.Platform.Clone(),
		slaveID: make([]int, cfg.Platform.M()),
		logCap:  cfg.EventLogCap,
	}
	if p.logCap > 0 {
		p.log = make([]Event, 0, p.logCap)
	}
	return p
}

// record appends to the event log (overwriting the oldest entry once a
// bounded log is full) and feeds the observer, which always sees the
// full stream.
func (p *program) record(ev Event) {
	switch ev.Kind {
	case EvSubmitted:
		p.admitted.Add(1)
	case EvSent:
		p.dispatched.Add(1)
	case EvCompleted:
		p.completed.Add(1)
	case EvRetracted:
		p.retracted.Add(1)
	}
	p.logMu.Lock()
	if p.logCap > 0 && len(p.log) == p.logCap {
		p.log[p.logTotal%uint64(p.logCap)] = ev
	} else {
		p.log = append(p.log, ev)
	}
	p.logTotal++
	p.logMu.Unlock()
	if p.cfg.Observer != nil {
		p.cfg.Observer(ev)
	}
}

// events snapshots the retained log, oldest first.
func (p *program) events() []Event {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	if p.logCap == 0 || len(p.log) < p.logCap {
		return append([]Event(nil), p.log...)
	}
	// Full ring: the oldest retained event sits where the next write
	// would land.
	out := make([]Event, 0, len(p.log))
	head := int(p.logTotal % uint64(p.logCap))
	out = append(out, p.log[head:]...)
	return append(out, p.log[:head]...)
}

// eventsDropped reports how many events the bounded log overwrote.
func (p *program) eventsDropped() int64 {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return int64(p.logTotal) - int64(len(p.log))
}

// runMaster is the master actor: the scheduling policy's event loop.
// Structure mirrors the discrete-event engine's step(): drain everything
// deliverable at the current instant, then — if the port is free and work
// is pending — consult the scheduler exactly once, then block until the
// next event. The port is "busy" exactly while this actor sleeps inside
// Send, which is the one-port model.
func (p *program) runMaster(n Node) {
	p.drv = p.drvInit(n)
	p.cfg.Scheduler.Reset(p.pl.Clone())
	view := p.drv.View()
	for {
		now := n.Now()
		if !p.drainMail(n, now) {
			return
		}
		if p.draining && p.drv.PendingCount() == 0 && p.drv.Done()+p.drv.Retracted() == p.drv.Admitted() {
			for _, id := range p.slaveID {
				n.Post(id, Msg{Kind: msgQuit})
			}
			return
		}
		if p.drv.PendingCount() == 0 {
			m, ok := n.Recv()
			if !ok || !p.handle(m) {
				return
			}
			continue
		}
		act := p.cfg.Scheduler.Decide(view)
		switch act.Kind {
		case sim.ActSend:
			p.dispatch(n, act.Task, act.Slave)
		case sim.ActWait:
			if act.Until <= now {
				panic(fmt.Sprintf("live: scheduler %s waits until %v which is not after now %v",
					p.cfg.Scheduler.Name(), act.Until, now))
			}
			if m, ok := n.RecvDeadline(act.Until); ok && !p.handle(m) {
				return
			}
		case sim.ActIdle:
			m, ok := n.Recv()
			if !ok || !p.handle(m) {
				return
			}
		default:
			panic(fmt.Sprintf("live: unknown action kind %d", act.Kind))
		}
	}
}

// drvInit builds the Driver against the running node's clock. It must
// happen inside the master actor: Runtime.New runs before the substrate
// has a clock reference for virtual worlds.
func (p *program) drvInit(n Node) *sim.Driver {
	if p.drv == nil {
		p.drv = sim.NewDriver(p.pl, n.Now)
	}
	return p.drv
}

// drainMail processes every message already deliverable at now. It
// reports false when the master must unwind (abort).
func (p *program) drainMail(n Node, now float64) bool {
	for {
		m, ok := n.RecvDeadline(now)
		if !ok {
			return true
		}
		if !p.handle(m) {
			return false
		}
	}
}

// handle applies one message to the master state. It reports false when
// the master must unwind (abort).
func (p *program) handle(m Msg) bool {
	switch m.Kind {
	case msgSubmit:
		id := p.drv.Admit(core.Task{
			Release:   m.At,
			CommScale: m.Job.CommScale,
			CompScale: m.Job.CompScale,
		})
		if int(id) != m.Job.ID {
			panic(fmt.Sprintf("live: job submitted as %d admitted as %d (submission order violated)", m.Job.ID, id))
		}
		p.record(Event{T: m.At, Kind: EvSubmitted, Task: int(id), Slave: -1})
	case msgAck:
		p.drv.MarkCompleted(core.TaskID(m.Task), m.Slave, m.Start, m.Complete)
		p.record(Event{T: m.Start, Kind: EvStarted, Task: m.Task, Slave: m.Slave})
		p.record(Event{T: m.Complete, Kind: EvCompleted, Task: m.Task, Slave: m.Slave})
	case msgSteal:
		// Retract up to Count pending jobs for migration. The reply is
		// sent from inside the master actor, so by the time the thief
		// holds the jobs they are out of this master's pending queue and
		// can never be dispatched here — no double-dispatch window.
		tasks := p.drv.RetractNewest(m.Count)
		jobs := make([]StolenJob, len(tasks))
		for i, t := range tasks {
			jobs[i] = StolenJob{
				Local: int(t.ID),
				Spec:  JobSpec{CommScale: t.CommScale, CompScale: t.CompScale},
			}
			p.record(Event{T: m.At, Kind: EvRetracted, Task: int(t.ID), Slave: -1})
		}
		m.StealReply <- jobs
	case msgDrain:
		p.draining = true
	case msgAbort:
		return false
	default:
		panic(fmt.Sprintf("live: master received unexpected message kind %d", m.Kind))
	}
	return true
}

// dispatch ships one pending task: the Send blocks this actor for the
// actual transfer duration (port occupancy), after which the master has
// observed its own send complete. The arrival is the delivery stamp Send
// returns, not the clock when the master resumes: on a real clock the
// slave may already have stamped its start in between.
func (p *program) dispatch(n Node, task core.TaskID, j int) {
	p.drv.MarkSent(p.cfg.Scheduler.Name(), task, j)
	t := p.drv.Task(task)
	now := n.Now()
	p.record(Event{T: now, Kind: EvSent, Task: int(task), Slave: j})
	arrive := n.Send(p.slaveID[j], Msg{
		Kind:  msgTask,
		Task:  int(task),
		Slave: j,
		Dur:   p.pl.P[j] * t.EffComp(),
	}, p.pl.C[j]*t.EffComm())
	p.drv.MarkArrived(task, j, arrive)
	p.record(Event{T: arrive, Kind: EvArrived, Task: int(task), Slave: j})
}

// runSlave is the worker actor for slave j: receive a task, charge its
// computation by sleeping on the clock, notify the master.
func (p *program) runSlave(j int, n Node) {
	for {
		m, ok := n.Recv()
		if !ok {
			return
		}
		switch m.Kind {
		case msgQuit, msgAbort:
			return
		case msgTask:
			start := n.Now()
			n.Sleep(m.Dur)
			n.Post(p.masterID, Msg{
				Kind:     msgAck,
				Task:     m.Task,
				Slave:    j,
				Start:    start,
				Complete: n.Now(),
			})
		default:
			panic(fmt.Sprintf("live: slave %d received unexpected message kind %d", j, m.Kind))
		}
	}
}
