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
	"sort"
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
	at     Time
	seq    uint64 // tie-breaker: FIFO among same-time events
	fn     func()
	epoch  int64 // absolute calendar-bucket number at insertion width
	bucket int   // owning bucket, fixed by epoch & mask
	index  int   // position within the bucket
}

// before reports whether e fires ahead of other in the kernel's total
// order: time first, then insertion sequence (FIFO among ties).
func (e *event) before(other *event) bool {
	if e.at != other.at {
		return e.at < other.at
	}
	return e.seq < other.seq
}

// calendarQueue is the pending-event set, organized as a calendar (bucket)
// queue (Brown, CACM 1988): virtual time is cut into windows of `width`
// seconds, window k maps to bucket k mod nbuckets, and a cursor sweeps
// windows in order. With the bucket count resized to track the event
// population, Schedule and pop are both O(1) amortized — against
// the binary heap's O(log n) — which is what makes million-request
// horizons with tens of thousands of pending events affordable.
//
// Ordering is exact, not approximate: an event's window is its integer
// epoch floor(at/width), the in-window test compares epochs (never
// accumulated float boundaries), and within a window the minimum is chosen
// by (at, seq) — so firing order, including FIFO among equal timestamps,
// is identical to the heap's total order.
type calendarQueue struct {
	buckets [][]*event
	mask    int // len(buckets)-1; len is a power of two
	n       int
	width   Time
	// curEpoch is the window the sweep cursor is on. Invariant: no pending
	// event has epoch < curEpoch.
	curEpoch int64
	// sample is resize's scratch for width estimation.
	sample []float64
}

const (
	minBuckets = 16
	// maxEpoch is the clamped window for events so far in the future that
	// floor(at/width) overflows — e.g. horizon guards near Forever. They
	// are only ever reached through the direct-search fallback, which
	// compares (at, seq) exactly, so sharing one clamped window is safe.
	maxEpoch = int64(1) << 62
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([][]*event, minBuckets),
		mask:    minBuckets - 1,
		width:   1,
	}
}

// epochOf maps a timestamp to its window at the current width.
func (q *calendarQueue) epochOf(at Time) int64 {
	e := math.Floor(float64(at) / float64(q.width))
	if !(e < float64(maxEpoch)) { // also catches +Inf/NaN from extreme at
		return maxEpoch
	}
	if e < 0 {
		return 0
	}
	return int64(e)
}

// push inserts an event, rewinding the cursor if it lands before it.
func (q *calendarQueue) push(ev *event) {
	q.place(ev)
	q.n++
	if q.n == 1 || ev.epoch < q.curEpoch {
		q.curEpoch = ev.epoch
	}
	if q.n > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// place computes the event's window at the current width and appends it to
// its bucket.
func (q *calendarQueue) place(ev *event) {
	ev.epoch = q.epochOf(ev.at)
	b := int(ev.epoch) & q.mask
	ev.bucket = b
	ev.index = len(q.buckets[b])
	q.buckets[b] = append(q.buckets[b], ev)
}

// remove unlinks a pending event from its bucket in O(1) by swapping the
// bucket's last event into its slot.
func (q *calendarQueue) remove(ev *event) {
	b := q.buckets[ev.bucket]
	last := len(b) - 1
	if ev.index != last {
		moved := b[last]
		b[ev.index] = moved
		moved.index = ev.index
	}
	b[last] = nil
	q.buckets[ev.bucket] = b[:last]
	q.n--
	if q.n < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
}

// peek returns the next event in (at, seq) order without removing it. The
// cursor advances past empty windows as a side effect; if a whole year
// (every bucket once) is swept without a hit, the pending set is sparse
// relative to the cursor and a direct minimum search jumps the cursor to
// wherever the events actually are.
func (q *calendarQueue) peek() *event {
	if q.n == 0 {
		return nil
	}
	for i := 0; i <= q.mask; i++ {
		var best *event
		for _, ev := range q.buckets[int(q.curEpoch)&q.mask] {
			if ev.epoch == q.curEpoch && (best == nil || ev.before(best)) {
				best = ev
			}
		}
		if best != nil {
			return best
		}
		q.curEpoch++
	}
	var best *event
	for _, bkt := range q.buckets {
		for _, ev := range bkt {
			if best == nil || ev.before(best) {
				best = ev
			}
		}
	}
	q.curEpoch = best.epoch
	return best
}

// pop removes and returns the next event in (at, seq) order.
func (q *calendarQueue) pop() *event {
	ev := q.peek()
	if ev != nil {
		q.remove(ev)
	}
	return ev
}

// resize rebuilds the calendar with nb buckets and a width re-estimated
// from the current population's spacing, keeping amortized bucket
// occupancy O(1) as the pending count grows and shrinks.
func (q *calendarQueue) resize(nb int) {
	if nb < minBuckets {
		nb = minBuckets
	}
	if w := q.sampleWidth(); w > 0 {
		q.width = w
	}
	old := q.buckets
	q.buckets = make([][]*event, nb)
	q.mask = nb - 1
	var min *event
	for _, bkt := range old {
		for _, ev := range bkt {
			q.place(ev)
			if min == nil || ev.before(min) {
				min = ev
			}
		}
	}
	if min != nil {
		q.curEpoch = min.epoch
	}
}

// sampleWidth estimates a bucket width from the median positive gap
// between a deterministic sample of pending-event timestamps. The median
// keeps one far-future outlier (a horizon guard) from stretching every
// bucket; dividing by the sampling stride converts the sample's spacing
// back to the population's adjacent-event spacing, so occupancy stays
// around one event per swept window. Returns 0 when no estimate is
// possible (fewer than two distinct timestamps), in which case the caller
// keeps the current width.
func (q *calendarQueue) sampleWidth() Time {
	const sampleCap = 64
	stride := 1
	if q.n > sampleCap {
		stride = q.n / sampleCap
	}
	ts := q.sample[:0]
	i := 0
	for _, bkt := range q.buckets {
		for _, ev := range bkt {
			if i%stride == 0 {
				ts = append(ts, float64(ev.at))
			}
			i++
		}
	}
	q.sample = ts
	sort.Float64s(ts)
	gaps := 0
	for i := 1; i < len(ts); i++ {
		if g := ts[i] - ts[i-1]; g > 0 {
			ts[gaps] = g // reuse the prefix for the positive gaps
			gaps++
		}
	}
	if gaps == 0 {
		return 0
	}
	sort.Float64s(ts[:gaps])
	w := 4 * ts[gaps/2] / float64(stride)
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return 0
	}
	return Time(w)
}

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is not usable; call New.
type Simulator struct {
	now       Time
	q         *calendarQueue
	seq       uint64
	lastFired Time
	// free recycles fired event structs. Bounded by the peak
	// number of simultaneously pending events, it eliminates the
	// per-Schedule heap allocation on the kernel's hottest path.
	free []*event
}

// New returns an empty simulator at time 0.
func New() *Simulator {
	return &Simulator{q: newCalendarQueue()}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of scheduled-but-unfired events.
func (s *Simulator) Pending() int { return s.q.n }

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
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
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
