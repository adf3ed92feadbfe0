package sim

// Ledger is the bookkeeping a real master can maintain about its slaves:
// it records its own dispatch decisions, the actual send durations (the
// master experiences its own port), and completion notifications, and
// estimates slave readiness using nominal computation times for
// everything still outstanding. It lives in the Driver, so every
// substrate (the engine, internal/mpiexp, internal/live) estimates
// readiness with the same code and the substrates agree
// decision-for-decision.
//
// The one-port pattern's mutations each cost O(1):
//
//   - Each slave's backlog is head-indexed. Under the one-port model a
//     slave completes its tasks in dispatch order, so Completed of the
//     oldest unit advances the head; an out-of-order completion (the
//     unbounded-port model) falls back to a scan and splice. The backlog
//     is compacted once the head passes half its length, so its array
//     stays within about twice the live backlog.
//   - Ready is memoized as a prefix fold per slave: t starts at the last
//     sync and each unit, in dispatch order, takes t = max(t, arrival) +
//     nominalComp. Assign extends the memo by one step, and Arrived on the
//     newest unit redoes that step from the saved value before it. A
//     completion, failure, sync, an arrival of an older unit or a new
//     nominalComp invalidates the memo, and the next Ready refolds the
//     backlog. Either way the memo holds the value the full fold returns,
//     from the same float operations in the same order, so memoized and
//     unmemoized runs are bit-identical (pinned by the differential
//     suite).
type Ledger struct {
	slaves []slaveBook
}

// slaveBook is the ledger's state for one slave.
type slaveBook struct {
	units    []ledgerUnit // outstanding units are units[head:], in dispatch order
	head     int
	lastSync float64 // latest time the slave was known idle

	// The Ready memo: ready is the fold over the outstanding units and
	// prev the fold over all of them but the newest, both charging
	// readyFor per unit. They are valid only while fresh.
	ready    float64
	prev     float64
	readyFor float64
	fresh    bool
}

// ledgerUnit is one outstanding task: the arrival time is actual once the
// send completed, predicted before that.
type ledgerUnit struct {
	task    int
	arrival float64
}

// NewLedger creates bookkeeping for m slaves.
func NewLedger(m int) *Ledger {
	return &Ledger{slaves: make([]slaveBook, m)}
}

// Assign records that a task's send to slave j has started, with the
// nominal-cost arrival prediction.
func (l *Ledger) Assign(j, task int, predictedArrival float64) {
	s := &l.slaves[j]
	s.push(ledgerUnit{task: task, arrival: predictedArrival})
	if s.fresh {
		s.prev = s.ready
		s.ready = s.step(s.prev, predictedArrival)
	}
}

// Arrived corrects the task's arrival to the observed send completion.
// The scan runs backwards: the one-port master has at most one send in
// flight, so the arriving task is the most recently assigned unit — the
// backward scan finds it in one step, and the memo redoes only the last
// fold step. Under the unbounded-port model an older unit may arrive;
// the scan is then longer and the memo is refolded.
func (l *Ledger) Arrived(j, task int, actual float64) {
	s := &l.slaves[j]
	live := s.live()
	for i := len(live) - 1; i >= 0; i-- {
		if live[i].task == task {
			live[i].arrival = actual
			if i == len(live)-1 && s.fresh {
				s.ready = s.step(s.prev, actual)
			} else {
				s.fresh = false
			}
			return
		}
	}
}

// Completed removes the task from slave j's backlog after a completion
// notification at the given time.
func (l *Ledger) Completed(j, task int, at float64) {
	s := &l.slaves[j]
	s.remove(task)
	if at > s.lastSync {
		s.lastSync = at
	}
	s.fresh = false
}

// Fail clears slave j's backlog after a failure notification at the given
// time: every outstanding unit is gone with the slave.
func (l *Ledger) Fail(j int, at float64) {
	s := &l.slaves[j]
	s.units = s.units[:0]
	s.head = 0
	if at > s.lastSync {
		s.lastSync = at
	}
	s.fresh = false
}

// Sync records that slave j was known idle at the given time (e.g. it
// just recovered with an empty queue).
func (l *Ledger) Sync(j int, at float64) {
	s := &l.slaves[j]
	if at > s.lastSync {
		s.lastSync = at
		s.fresh = false
	}
}

// AddSlave extends the bookkeeping for a slave joining at the given time.
func (l *Ledger) AddSlave(at float64) {
	l.slaves = append(l.slaves, slaveBook{lastSync: at})
}

// Outstanding returns the number of assigned, unfinished tasks on slave j.
func (l *Ledger) Outstanding(j int) int { return len(l.slaves[j].units) - l.slaves[j].head }

// Ready estimates when slave j drains its backlog, charging nominalComp
// per outstanding task. The estimate is served from the memo when it is
// valid for the same nominalComp; otherwise the fold below recomputes
// it.
func (l *Ledger) Ready(j int, nominalComp float64) float64 {
	s := &l.slaves[j]
	if s.fresh && s.readyFor == nominalComp {
		return s.ready
	}
	s.readyFor = nominalComp
	t, prev := s.lastSync, s.lastSync
	for _, u := range s.live() {
		prev = t
		t = s.step(t, u.arrival)
	}
	s.ready, s.prev, s.fresh = t, prev, true
	return t
}

// backlog returns slave j's outstanding units in dispatch order.
func (l *Ledger) backlog(j int) []ledgerUnit { return l.slaves[j].live() }

// step is one fold step: the slave starts the unit once it is both free
// and holding it, then computes for readyFor.
func (s *slaveBook) step(t, arrival float64) float64 {
	if arrival > t {
		t = arrival
	}
	return t + s.readyFor
}

func (s *slaveBook) live() []ledgerUnit { return s.units[s.head:] }

// push appends a unit. A full array is compacted in place while a
// quarter of it is dead, and otherwise replaced by one of twice the live
// length (plus slack), so the array tracks the backlog rather than the
// number of units ever assigned. taskFIFO.Push follows the same rule;
// the two are not one generic queue because Go names a generic
// instantiation after its shape type, which for ledgerUnit spells out
// this package's path and defeats per-package CPU-profile attribution.
func (s *slaveBook) push(u ledgerUnit) {
	if len(s.units) == cap(s.units) {
		if n := len(s.units) - s.head; 4*n > 3*cap(s.units) {
			units := make([]ledgerUnit, n, 2*n+4)
			copy(units, s.live())
			s.units = units
		} else {
			s.units = s.units[:copy(s.units, s.live())]
		}
		s.head = 0
	}
	s.units = append(s.units, u)
}

// remove deletes the task's unit. The oldest unit, the one-port case,
// costs O(1); any other is spliced out, keeping the rest in order.
func (s *slaveBook) remove(task int) {
	live := s.live()
	switch {
	case len(live) == 0:
		return
	case live[0].task == task:
		s.head++
	default:
		for i := 1; i < len(live); i++ {
			if live[i].task == task {
				s.units = append(s.units[:s.head+i], s.units[s.head+i+1:]...)
				break
			}
		}
	}
	if 2*s.head > len(s.units) {
		n := copy(s.units, s.units[s.head:])
		s.units, s.head = s.units[:n], 0
	}
}
