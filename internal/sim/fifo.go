package sim

// FIFO is an unbounded first-in first-out queue on a power-of-two ring
// buffer. The zero value is empty and ready to use; once the ring has
// grown to the peak occupancy, Push and Pop allocate nothing.
//
// It is the closure-free alternative to scheduling one func() per item:
// when each item is due no earlier than the one pushed before it, the
// component pushes the item and schedules a handler bound once at
// construction, and the handler pops. Events scheduled in push order
// for non-decreasing instants fire in push order — ties fall back to
// (schedAt, seq), both nondecreasing in push order — so the i-th firing
// pops the i-th item.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head item. Popping an empty FIFO panics:
// it means an event fired without its queued item.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: pop from empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release what the item references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring (minimum 8 slots), unwrapping it in order.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
