package sim

// Queue is a FIFO channel-like queue for simulation processes. A capacity
// of zero means unbounded. Get blocks while the queue is empty; Put blocks
// while a bounded queue is full. TryPut never blocks and reports failure on
// a full queue — that is how lossy hardware rings (NIC FIFOs, switch ports)
// are modelled.
type Queue[T any] struct {
	e *Engine
	// items[head:] are the queued items. Popping advances head instead of
	// reslicing, so the backing array keeps its capacity and appends reuse
	// it, the way the engine's dispatch ring does.
	items    []T
	head     int
	capacity int
	notEmpty *Cond
	notFull  *Cond
	dropped  uint64
}

// NewQueue returns a queue bound to engine e. capacity <= 0 means
// unbounded.
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{
		e:        e,
		capacity: capacity,
		notEmpty: NewCond(e),
		notFull:  NewCond(e),
	}
}

// SetName names the queue's internal conds for wake diagnostics.
func (q *Queue[T]) SetName(name string) {
	q.notEmpty.name = name + ".notEmpty"
	q.notFull.name = name + ".notFull"
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Cap reports the capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.capacity }

// Dropped reports how many TryPut calls failed because the queue was full.
func (q *Queue[T]) Dropped() uint64 { return q.dropped }

func (q *Queue[T]) full() bool { return q.capacity > 0 && q.Len() >= q.capacity }

// TryPut appends v if there is room and reports whether it did. On failure
// the item is counted as dropped.
func (q *Queue[T]) TryPut(v T) bool {
	if q.full() {
		q.dropped++
		return false
	}
	q.items = append(q.items, v)
	q.notEmpty.Signal()
	return true
}

// Put appends v, blocking the calling process while the queue is full.
func (q *Queue[T]) Put(p *Process, v T) {
	q.notFull.WaitFor(p, func() bool { return !q.full() })
	q.items = append(q.items, v)
	q.notEmpty.Signal()
}

// PollPut is the tasklet-tier Put: it appends v if there is room;
// otherwise it registers w for a wake when space frees up and reports
// false, in which case the caller must retry the same item when woken.
// Unlike TryPut, a failed PollPut does not count the item as dropped —
// the item is deferred, not lost.
func (q *Queue[T]) PollPut(w Waiter, v T) bool {
	if q.full() {
		q.notFull.Await(w)
		return false
	}
	q.items = append(q.items, v)
	q.notEmpty.Signal()
	return true
}

// TryGet removes and returns the head item without blocking. ok is false if
// the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	} else if q.head >= 64 && q.head*2 >= len(q.items) {
		// A queue that never drains would otherwise grow without bound;
		// compact, clearing the vacated tail so it retains nothing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.notFull.Signal()
	return v, true
}

// Get removes and returns the head item, blocking the calling process while
// the queue is empty.
func (q *Queue[T]) Get(p *Process) T {
	q.notEmpty.WaitFor(p, func() bool { return q.Len() > 0 })
	v, _ := q.TryGet()
	return v
}

// PollGet is the tasklet-tier Get: it removes and returns the head item
// if there is one; otherwise it registers w for a wake when an item
// arrives and reports false.
func (q *Queue[T]) PollGet(w Waiter) (v T, ok bool) {
	if q.Len() == 0 {
		q.notEmpty.Await(w)
		return v, false
	}
	v, _ = q.TryGet()
	return v, true
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.items[q.head], true
}
