// Package sim provides a deterministic discrete-event simulation kernel.
//
// All WindServe experiments run on virtual time: instances schedule
// "iteration complete" events, transfer engines schedule "copy done" events,
// and workload generators schedule request arrivals. The kernel guarantees a
// total order over events (time, then insertion sequence), so a run with a
// fixed seed is bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Forever is a time later than any event a simulation will ever schedule.
const Forever Time = math.MaxFloat64 / 4

// Seconds constructs a Duration from a float64 number of seconds.
func Seconds(s float64) Duration { return Duration(s) }

// Milliseconds constructs a Duration from milliseconds.
func Milliseconds(ms float64) Duration { return Duration(ms / 1e3) }

// Microseconds constructs a Duration from microseconds.
func Microseconds(us float64) Duration { return Duration(us / 1e6) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Milliseconds returns the duration in milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) * 1e3 }

func (t Time) String() string     { return fmt.Sprintf("%.6fs", float64(t)) }
func (d Duration) String() string { return fmt.Sprintf("%.3fms", float64(d)*1e3) }

// event is a scheduled callback. Events are pooled: once fired, the
// struct goes on the simulator's free list and is reused by a later
// Schedule. No handle to an event escapes the kernel, so a recycled
// struct can never be reached through a stale reference.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
}

// before reports whether e fires ahead of other in the kernel's total
// order: time first, then insertion sequence (FIFO among ties).
func (e *event) before(other *event) bool {
	if e.at != other.at {
		return e.at < other.at
	}
	return e.seq < other.seq
}

// eventHeap is the pending-event set: a 4-ary min-heap on (at, seq). The
// order is total, so any correct priority queue fires events in the same
// order. Four children per node halve a binary heap's depth, and the set
// stays small: tens of events on a testbed, a few thousand on a fleet.
type eventHeap []*event

// peek returns the next event in (at, seq) order without removing it.
func (h eventHeap) peek() *event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// push inserts an event, sifting it up past every later parent.
func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the next event in (at, seq) order: the last
// leaf replaces the root and sifts down past every earlier child.
func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	if n < 0 {
		return nil
	}
	top, last := q[0], q[n]
	q[n], *h = nil, q[:n] // the sift below reads q[:n] only
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is not usable; call New.
type Simulator struct {
	now       Time
	q         eventHeap
	seq       uint64
	lastFired Time
	// free recycles fired event structs. Bounded by the peak
	// number of simultaneously pending events, it eliminates the
	// per-Schedule heap allocation on the kernel's hottest path.
	free []*event
}

// New returns an empty simulator at time 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of scheduled-but-unfired events.
func (s *Simulator) Pending() int { return len(s.q) }

// Schedule runs fn after delay d (>= 0). Scheduling in the past panics,
// since it indicates a cost-model bug rather than a recoverable condition.
func (s *Simulator) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now.Add(d), fn)
}

// At runs fn at absolute time t (>= Now).
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	s.push(t, s.seq, fn)
	s.seq++
}

// push inserts an event at t under sequence number seq. At takes the
// next number; Timers arms its head under the number it reserved.
func (s *Simulator) push(t Time, seq uint64, fn func()) {
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = t, seq, fn
	s.q.push(ev)
}

// alloc takes an event off the free list, or allocates the list's first
// incarnation of one.
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// Step fires the single earliest pending event, if any, advancing the clock.
// It reports whether an event fired.
func (s *Simulator) Step() bool {
	ev := s.q.pop()
	if ev == nil {
		return false
	}
	if ev.at < s.now {
		panic("sim: time went backwards")
	}
	s.now = ev.at
	s.lastFired = ev.at
	fn := ev.fn
	// Recycle before firing: the callback's own Schedule calls may reuse
	// the struct immediately.
	ev.fn = nil
	s.free = append(s.free, ev)
	fn()
	return true
}

// Run fires events in order until no events remain or the horizon is
// passed. The clock is left at the last fired event (or at the horizon,
// whichever is smaller, if events remain beyond it).
func (s *Simulator) Run(until Time) {
	for {
		next := s.q.peek()
		if next == nil {
			return
		}
		if next.at > until {
			s.now = until
			return
		}
		s.Step()
	}
}

// RunAll fires all events until the queue drains.
func (s *Simulator) RunAll() { s.Run(Forever) }

// NextAt returns the time of the earliest pending event, if any.
func (s *Simulator) NextAt() (Time, bool) {
	next := s.q.peek()
	if next == nil {
		return 0, false
	}
	return next.at, true
}

// LastFired returns the time of the most recently fired event (0 if none
// has fired). Unlike Now, it never reflects a Run/RunWindow horizon the
// clock was merely advanced to.
func (s *Simulator) LastFired() Time { return s.lastFired }

// RunWindow fires events strictly before end and leaves the clock exactly
// at end. It is the shard executor's primitive: a window [start, end) is
// exhausted and the clock parked on the boundary so cross-shard messages
// delivered at >= end can be scheduled without violating At's no-past rule.
func (s *Simulator) RunWindow(end Time) {
	for {
		next := s.q.peek()
		if next == nil || next.at >= end {
			break
		}
		s.Step()
	}
	if end > s.now {
		s.now = end
	}
}
