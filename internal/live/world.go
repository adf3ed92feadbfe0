package live

// The substrate contract: a World is a set of actors sharing a clock and
// priced point-to-point message delivery. Everything the master, slaves
// and sources do — sleeping, transmitting, notifying, submitting — goes
// through this interface, which is what lets the same actor programs run
// on wall-clock goroutines and on the deterministic virtual-time kernel.

// MsgKind discriminates runtime messages.
type MsgKind int

const (
	// msgSubmit is client → master: one job enters the system.
	msgSubmit MsgKind = iota
	// msgDrain is client → master: no more jobs; finish and shut down.
	msgDrain
	// msgTask is master → slave: one task, shipped over the one-port link.
	msgTask
	// msgAck is slave → master: a task's computation window.
	msgAck
	// msgQuit is master → slave: the run is over.
	msgQuit
	// msgAbort is substrate → everyone (real worlds only): another actor
	// failed; unwind.
	msgAbort
	// msgSteal is rebalancer → master (real worlds only): extract up to
	// Count pending jobs from the back of the queue and reply on
	// StealReply.
	msgSteal
)

// Msg is one runtime message. Fields are a union over kinds; At is the
// model-time delivery stamp every substrate fills in.
type Msg struct {
	Kind MsgKind
	// At is the time the message was delivered (for msgSubmit, the job's
	// release time).
	At float64
	// Task is the task index (msgSubmit, msgTask, msgAck).
	Task int
	// Slave is the executing slave (msgTask, msgAck).
	Slave int
	// Dur is the actual computation duration the slave must charge
	// (msgTask).
	Dur float64
	// Start and Complete bound the computation (msgAck).
	Start    float64
	Complete float64
	// Job is the submission payload (msgSubmit).
	Job JobSpec
	// Count is the maximum number of jobs to extract (msgSteal).
	Count int
	// StealReply carries the extracted jobs back to the thief (msgSteal).
	// The requester supplies a buffered channel so the master's reply
	// never blocks the serving loop.
	StealReply chan []StolenJob
}

// Clock is how live actors experience time: a monotonically advancing
// model-seconds counter plus a blocking sleep. Implementations are the
// (optionally scaled) wall clock and the deterministic virtual clock.
type Clock interface {
	// Now returns the current time in model seconds since the world
	// started.
	Now() float64
	// Sleep blocks the calling actor for d model seconds.
	Sleep(d float64)
}

// Node is one actor's handle on its world: a clock and a mailbox.
type Node interface {
	Clock
	// Send transmits m to dst, blocking the caller for the whole transfer
	// (the paper's eager one-port send: the master experiences its own
	// port). The message is delivered when the transfer completes, and
	// Send returns the delivery stamp m.At: the receiver cannot observe
	// the message before it, however late the sender resumes.
	Send(dst int, m Msg, transfer float64) float64
	// Post delivers a free control message (completion notifications, job
	// submissions, shutdown) to dst at the current instant, without
	// blocking or yielding.
	Post(dst int, m Msg)
	// Recv blocks until a message arrives. ok is false when the world is
	// shutting down without one.
	Recv() (Msg, bool)
	// RecvDeadline blocks until a message arrives or the clock reaches
	// the deadline; a deadline at or before Now polls the mailbox.
	RecvDeadline(deadline float64) (Msg, bool)
}

// World is an execution substrate. Actors are spawned before Start;
// node IDs are dense in spawn order.
type World interface {
	// Spawn registers an actor program and returns its node ID.
	Spawn(name string, fn func(n Node)) int
	// Start launches the actors. Virtual worlds defer execution to Wait.
	Start()
	// Wait blocks until every actor has returned and reports the first
	// actor failure, if any.
	Wait() error
	// Post injects a message from outside the world. Real worlds deliver
	// it at the current instant; virtual worlds panic — determinism
	// requires every event to originate from an actor.
	Post(dst int, m Msg)
}
