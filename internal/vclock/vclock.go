// Package vclock is a deterministic virtual-time kernel for goroutine
// logical processes. Processes run one at a time under a cooperative
// scheduler. When the running process blocks (Sleep, Recv), its own
// goroutine runs the scheduling step: it picks the next runnable process
// and resumes it directly, and when none is runnable it first advances
// the virtual clock to the next timer or message delivery. A process
// that picks itself carries on without a goroutine switch. Runs are
// bit-for-bit reproducible: no wall-clock time or goroutine scheduling
// nondeterminism can leak into results.
//
// The resume order is fixed: processes are swept in id order, a new
// sweep starts after any sweep that ran something, and the clock moves
// only when a full sweep finds nothing ready.
//
// The kernel provides timed message delivery (Post) and a per-process
// mailbox with deadline-bounded receive, which is exactly what the
// message-passing emulation in internal/mpi needs.
package vclock

import (
	"fmt"
	"math"
	"sort"
)

// procState enumerates the lifecycle of a logical process.
type procState int

const (
	ready procState = iota
	running
	sleeping  // wake at wakeAt
	receiving // waiting for mail, optionally with deadline wakeAt
	done
)

// Message is one mailbox entry.
type Message struct {
	From    int
	Tag     int
	Size    float64
	Payload any

	deliverAt float64
	seq       int
}

// Proc is the handle a logical process uses to interact with virtual
// time. It is only valid inside the function passed to Spawn.
type Proc struct {
	c    *Cluster
	id   int
	name string

	state  procState
	wakeAt float64
	// mailbox holds delivered messages; the unread ones are
	// mailbox[head:]. Reading advances head instead of reslicing, and
	// the unread messages move to the front once head passes half the
	// buffer (which rewinds a drained one), so a long-lived mailbox
	// reuses one array.
	mailbox []Message
	head    int
	resume  chan struct{}
}

// ID returns the process identifier (its spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process's label.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.c.now }

// Sleep blocks the process for d units of virtual time. Negative
// durations panic; zero yields without advancing time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative sleep %v", d))
	}
	p.state = sleeping
	p.wakeAt = p.c.now + d
	p.yield()
}

// Post schedules a message for delivery into the process dst's mailbox
// after delay units of virtual time. It never blocks the caller.
//
// A message due at the current instant (delay 0) is delivered
// synchronously: by the time any process runs at time t, the kernel has
// already flushed every heap message with deliverAt <= t, so appending
// directly preserves the (deliverAt, seq) delivery order while making the
// message visible to same-instant polls. The live runtime's master
// (internal/live) depends on this to drain every completion posted at the
// current instant before consulting its scheduler, matching the
// discrete-event engine's drain-then-consult event ordering.
func (p *Proc) Post(dst int, msg Message, delay float64) {
	if delay < 0 {
		panic(fmt.Sprintf("vclock: negative delivery delay %v", delay))
	}
	msg.From = p.id
	msg.deliverAt = p.c.now + delay
	msg.seq = p.c.seq
	p.c.seq++
	if msg.deliverAt <= p.c.now {
		p.c.procs[dst].deliver(msg)
		return
	}
	p.c.mail.push(msg2dst{msg: msg, dst: dst})
}

// Recv blocks until a message is available and returns the oldest one
// (by delivery time, then posting order).
func (p *Proc) Recv() Message {
	msg, ok := p.RecvDeadline(math.Inf(1))
	if !ok {
		panic("vclock: Recv returned without a message") // unreachable
	}
	return msg
}

// RecvDeadline blocks until a message is available or the virtual clock
// reaches the deadline, whichever comes first. It reports whether a
// message was received. A deadline at or before now polls the mailbox.
func (p *Proc) RecvDeadline(deadline float64) (Message, bool) {
	for {
		if p.unread() > 0 {
			return p.take(), true
		}
		if deadline <= p.c.now {
			return Message{}, false
		}
		p.state = receiving
		p.wakeAt = deadline
		p.yield()
		if p.unread() == 0 && p.c.now >= deadline {
			return Message{}, false
		}
	}
}

// deliver appends a message to the mailbox and wakes a blocked receiver.
func (p *Proc) deliver(msg Message) {
	p.mailbox = append(p.mailbox, msg)
	if p.state == receiving {
		p.state = ready
	}
}

// unread returns the number of delivered, unread messages.
func (p *Proc) unread() int { return len(p.mailbox) - p.head }

// take removes and returns the oldest unread message.
func (p *Proc) take() Message {
	msg := p.mailbox[p.head]
	p.mailbox[p.head] = Message{} // drop the payload reference
	p.head++
	if 2*p.head > len(p.mailbox) {
		n := copy(p.mailbox, p.mailbox[p.head:])
		clear(p.mailbox[p.head:]) // the moved messages' old slots
		p.mailbox, p.head = p.mailbox[:n], 0
	}
	return msg
}

// yield blocks the process: its goroutine runs the scheduling step and
// hands control straight to the next process. When that is the process
// itself, it carries on without a goroutine switch.
func (p *Proc) yield() {
	next, err := p.c.next()
	if next == p {
		return
	}
	// A nil next means a deadlock with p still blocked; p then stays
	// parked, as every other blocked process does.
	p.c.switchTo(next, err)
	<-p.resume
}

// msg2dst pairs a message with its destination for the delivery heap.
type msg2dst struct {
	msg Message
	dst int
}

// mailHeap is a binary min-heap of in-flight messages ordered by
// (deliverAt, seq). Every seq is unique, so the order is total and the
// pop sequence does not depend on the heap's internal layout.
type mailHeap []msg2dst

func (h mailHeap) less(i, j int) bool {
	if h[i].msg.deliverAt != h[j].msg.deliverAt {
		return h[i].msg.deliverAt < h[j].msg.deliverAt
	}
	return h[i].msg.seq < h[j].msg.seq
}

func (h *mailHeap) push(x msg2dst) {
	*h = append(*h, x)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *mailHeap) pop() msg2dst {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = msg2dst{} // drop the payload reference
	q = q[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < last && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Cluster is a set of logical processes sharing one virtual clock.
type Cluster struct {
	now     float64
	procs   []*Proc
	mail    mailHeap
	seq     int
	started bool

	// Scheduling-step state, touched only by the goroutine that holds
	// control: the sweep position and whether the current sweep has
	// resumed anyone.
	cursor int
	swept  bool
	end    chan error // the outcome of the run, sent once
}

// New creates an empty cluster at time 0.
func New() *Cluster {
	return &Cluster{end: make(chan error, 1)}
}

// Now returns the current virtual time.
func (c *Cluster) Now() float64 { return c.now }

// Spawn registers a logical process. All processes must be spawned before
// Run is called. The returned id addresses the process in Post.
func (c *Cluster) Spawn(name string, fn func(p *Proc)) int {
	if c.started {
		panic("vclock: Spawn after Run")
	}
	p := &Proc{
		c:      c,
		id:     len(c.procs),
		name:   name,
		state:  ready,
		resume: make(chan struct{}),
	}
	c.procs = append(c.procs, p)
	go func() {
		<-p.resume
		defer func() {
			p.state = done
			// Nothing reads a finished process's mail: release the
			// mailbox, which a busy process leaves at its peak size.
			p.mailbox, p.head = nil, 0
			if r := recover(); r != nil {
				c.end <- fmt.Errorf("vclock: process %q panicked: %v", p.name, r)
				return
			}
			c.switchTo(c.next())
		}()
		fn(p)
	}()
	return p.id
}

// Run drives the cluster until every process finishes. It returns an
// error if a process panicked or if the system deadlocks (processes
// blocked forever with no pending timers or messages). Run only starts
// the first process; from then on each blocking process schedules its
// successor, and Run waits for the outcome.
func (c *Cluster) Run() error {
	c.started = true
	c.switchTo(c.next())
	return <-c.end
}

// switchTo passes control to the process the scheduling step picked,
// or, when it picked none, ends the run with the step's outcome.
func (c *Cluster) switchTo(next *Proc, err error) {
	if next == nil {
		c.end <- err
		return
	}
	next.resume <- struct{}{}
}

// next is the scheduling step. It resumes ready processes in id order,
// continuing the current sweep and starting a new one after any sweep
// that resumed someone; when a full sweep finds nobody ready it advances
// the clock. It marks the returned process running. A nil process means
// the run is over, with a nil error when every process finished.
func (c *Cluster) next() (*Proc, error) {
	for {
		for c.cursor < len(c.procs) {
			p := c.procs[c.cursor]
			c.cursor++
			if p.state == ready {
				p.state = running
				c.swept = true
				return p, nil
			}
		}
		c.cursor = 0
		if c.swept {
			c.swept = false
			continue
		}
		if over, err := c.advance(); over {
			return nil, err
		}
	}
}

// advance moves the clock to the next timer or delivery, delivers the
// mail due then and wakes expired sleepers and receive deadlines. It
// reports true when nothing is left to wait for, with the deadlock error
// if some process is still blocked.
func (c *Cluster) advance() (bool, error) {
	next := math.Inf(1)
	for _, p := range c.procs {
		if p.state == sleeping || p.state == receiving {
			if p.wakeAt < next {
				next = p.wakeAt
			}
		}
	}
	if len(c.mail) > 0 && c.mail[0].msg.deliverAt < next {
		next = c.mail[0].msg.deliverAt
	}
	if math.IsInf(next, 1) {
		remaining := c.blockedNames()
		if len(remaining) == 0 {
			return true, nil // all done
		}
		return true, fmt.Errorf("vclock: deadlock at t=%v, blocked: %v", c.now, remaining)
	}
	if next < c.now {
		next = c.now
	}
	c.now = next

	// Deliver all mail due now; wake receivers.
	for len(c.mail) > 0 && c.mail[0].msg.deliverAt <= c.now {
		d := c.mail.pop()
		c.procs[d.dst].deliver(d.msg)
	}
	// Wake expired sleepers and receive deadlines.
	for _, p := range c.procs {
		if (p.state == sleeping || p.state == receiving) && p.wakeAt <= c.now {
			p.state = ready
		}
	}
	return false, nil
}

func (c *Cluster) blockedNames() []string {
	var names []string
	for _, p := range c.procs {
		if p.state != done {
			names = append(names, fmt.Sprintf("%s(%d) state=%d wakeAt=%v mailbox=%d",
				p.name, p.id, p.state, p.wakeAt, p.unread()))
		}
	}
	sort.Strings(names)
	return names
}
