package sim

// taskFIFO is a head-indexed FIFO of task indices. The engine's pending
// queue and the per-slave arrival queues previously re-sliced a plain
// []int on every dequeue, which turned each dispatch into an O(queue)
// memmove (and, for the slave queues, let append reallocate behind the
// advancing slice header). Here PopFront is O(1): the head index moves
// forward, and the backing array is compacted once the head passes half
// of it (rewound outright when the queue drains). A full array is
// compacted in place while a quarter of it is dead, and otherwise
// replaced by one of twice the queue length, so the array stays within
// about twice the queued values however many pass through, and a run's
// queue traffic settles into zero allocations after warm-up.
//
// Removal order is part of the determinism contract: RemoveAt preserves
// the relative order of the survivors exactly as the old slice-splice
// did, so scheduler-visible FIFO positions are bit-identical.
type taskFIFO struct {
	buf  []int
	head int
}

// grow preallocates capacity for n queued values.
func (q *taskFIFO) grow(n int) {
	if cap(q.buf)-len(q.buf) >= n {
		return
	}
	buf := make([]int, len(q.buf), len(q.buf)+n)
	copy(buf, q.buf)
	q.buf = buf
}

// Len returns the number of queued values.
func (q *taskFIFO) Len() int { return len(q.buf) - q.head }

// At returns the i-th queued value in FIFO order.
func (q *taskFIFO) At(i int) int { return q.buf[q.head+i] }

// Front returns the oldest value without removing it.
func (q *taskFIFO) Front() (int, bool) {
	if q.head == len(q.buf) {
		return 0, false
	}
	return q.buf[q.head], true
}

// Push appends a value.
func (q *taskFIFO) Push(v int) {
	if len(q.buf) == cap(q.buf) {
		if n := q.Len(); 4*n > 3*cap(q.buf) {
			buf := make([]int, n, 2*n+4)
			copy(buf, q.buf[q.head:])
			q.buf = buf
		} else {
			q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		}
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// PopFront removes and returns the oldest value. It panics on an empty
// queue (a programming error in the engine, not a runtime condition).
func (q *taskFIFO) PopFront() int {
	v := q.buf[q.head]
	q.head++
	q.recycle()
	return v
}

// RemoveAt removes the i-th queued value, preserving the order of the
// rest. The front removal (the overwhelmingly common case: schedulers
// dispatch FirstPending) is O(1); mid-queue removal shifts the shorter
// side.
func (q *taskFIFO) RemoveAt(i int) {
	if i == 0 {
		q.head++
		q.recycle()
		return
	}
	pos := q.head + i
	if i < q.Len()-i {
		// Shift the (shorter) front segment right and advance the head.
		copy(q.buf[q.head+1:pos+1], q.buf[q.head:pos])
		q.head++
	} else {
		q.buf = append(q.buf[:pos], q.buf[pos+1:]...)
	}
	q.recycle()
}

// IndexOf returns the FIFO position of v, or -1.
func (q *taskFIFO) IndexOf(v int) int {
	for i := q.head; i < len(q.buf); i++ {
		if q.buf[i] == v {
			return i - q.head
		}
	}
	return -1
}

// Reset empties the queue, keeping the backing array.
func (q *taskFIFO) Reset() {
	q.buf = q.buf[:0]
	q.head = 0
}

// recycle moves the queued values to the front of the backing array
// once the head passes half of it, so the next Push reuses the space
// instead of growing the slice forever. Each move copies fewer values
// than were popped since the last one.
func (q *taskFIFO) recycle() {
	if 2*q.head > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
}
