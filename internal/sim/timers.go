package sim

import "fmt"

// Timers is a FIFO of timers whose due times never decrease in the order
// they are added — timers armed with one constant offset from Now, such
// as a per-request deadline. Only the head timer holds a simulator event;
// when it fires, the next head is armed. A fleet that parks a deadline per
// request thus keeps one pending event per queue instead of one per
// request.
//
// Each timer keeps the kernel sequence number it would have taken as a
// direct Schedule call, and the armed head event uses it. Timers
// therefore fire in exactly the (at, seq) order, relative to every other
// event, that one Schedule per timer would give.
type Timers[T any] struct {
	s    *Simulator
	fire func(T)
	q    []timer[T] // live timers are q[head:]; the head, if any, is armed
	head int
	// fireFn is the armed head's event callback, a method value built
	// once so arming allocates nothing.
	fireFn func()
}

type timer[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewTimers returns an empty timer queue on s that calls fire(v) when a
// timer added with value v comes due.
func NewTimers[T any](s *Simulator, fire func(T)) *Timers[T] {
	t := &Timers[T]{s: s, fire: fire}
	t.fireFn = t.fireHead
	return t
}

// Add arms a timer that calls fire(v) after d (>= 0). Its due time must
// not precede that of the last timer added and not yet fired; a caller
// that breaks this order panics, since the FIFO would fire out of order.
func (t *Timers[T]) Add(d Duration, v T) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %v", d))
	}
	at := t.s.now.Add(d)
	if n := len(t.q); n > t.head && at < t.q[n-1].at {
		panic(fmt.Sprintf("sim: timer due %v before the queue's tail at %v", at, t.q[n-1].at))
	}
	if len(t.q) == cap(t.q) && t.head > 0 && 2*t.head >= len(t.q) {
		// Slide the live timers to the front instead of growing: the
		// backing array stays within a constant factor of the most
		// timers ever outstanding at once.
		n := copy(t.q, t.q[t.head:])
		clear(t.q[n:])
		t.q, t.head = t.q[:n], 0
	}
	t.q = append(t.q, timer[T]{at: at, seq: t.s.seq, v: v})
	t.s.seq++
	if len(t.q)-t.head == 1 {
		t.arm() // the queue was empty: the new timer is the head
	}
}

// arm schedules the head timer's event under its reserved sequence number.
func (t *Timers[T]) arm() {
	h := &t.q[t.head]
	t.s.push(h.at, h.seq, t.fireFn)
}

// fireHead pops the head timer, arms its successor, then runs the head's
// callback (which may add timers of its own).
func (t *Timers[T]) fireHead() {
	v := t.q[t.head].v
	t.q[t.head] = timer[T]{}
	t.head++
	if t.head == len(t.q) {
		t.q, t.head = t.q[:0], 0
	} else {
		t.arm()
	}
	t.fire(v)
}
