package sim

import (
	"math/rand"
	"testing"
)

// outstanding returns the number of timers in tm not yet fired.
func outstanding[T any](tm *Timers[T]) int { return len(tm.q) - tm.head }

// firing is one callback observed by a test: which event and when.
type firing struct {
	at Time
	id int
}

// TestTimersFireAtDueTimesInOrder checks each timer fires exactly at
// now+d, in the order added, with one pending event per queue.
func TestTimersFireAtDueTimesInOrder(t *testing.T) {
	s := New()
	var got []firing
	tm := NewTimers(s, func(id int) { got = append(got, firing{s.Now(), id}) })
	var want []firing
	for i := 0; i < 5; i++ {
		at := Time(i) * 0.5
		s.At(at, func() {
			tm.Add(2, i)
			want = append(want, firing{at + 2, i})
		})
	}
	s.Step() // the first Add
	if s.Pending() != 4+1 || outstanding(tm) != 1 {
		t.Fatalf("Pending=%d Len=%d after one add, want 5 and 1", s.Pending(), outstanding(tm))
	}
	s.Run(1)
	if outstanding(tm) != 3 || s.Pending() != 2+1 {
		t.Fatalf("Pending=%d Len=%d after three adds, want 3 and 3 (one armed timer)", s.Pending(), outstanding(tm))
	}
	s.RunAll()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if outstanding(tm) != 0 || s.Pending() != 0 {
		t.Errorf("Len=%d Pending=%d after drain", outstanding(tm), s.Pending())
	}
}

// TestTimersInterleaveWithEvents checks timers and ordinary events at
// distinct times fire in time order.
func TestTimersInterleaveWithEvents(t *testing.T) {
	s := New()
	var got []firing
	tm := NewTimers(s, func(id int) { got = append(got, firing{s.Now(), id}) })
	tm.Add(1, 100)
	tm.Add(3, 101)
	tm.Add(5, 102)
	for i, at := range []Time{0.5, 2, 4, 6} {
		s.At(at, func() { got = append(got, firing{s.Now(), i}) })
	}
	s.RunAll()
	want := []firing{{0.5, 0}, {1, 100}, {2, 1}, {3, 101}, {4, 2}, {5, 102}, {6, 3}}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTimersMatchDirectScheduling replays random traffic — ordinary
// events, timers on two queues with different offsets, many of them
// landing on the same instant — once through Timers and once with one
// Schedule per timer. The firing sequences must be identical: each timer
// keeps the sequence number a direct Schedule would have taken.
func TestTimersMatchDirectScheduling(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		run := func(queued bool) []firing {
			rng := rand.New(rand.NewSource(seed))
			s := New()
			var got []firing
			note := func(id int) { got = append(got, firing{s.Now(), id}) }
			offsets := [2]Duration{1, 0.25}
			var qs [2]*Timers[int]
			for k := range qs {
				qs[k] = NewTimers(s, note)
			}
			next := 0
			var spawn func(depth int)
			spawn = func(depth int) {
				for n := rng.Intn(3); n >= 0; n-- {
					id := next
					next++
					switch rng.Intn(3) {
					case 0:
						// Quarter-second grid: ties with timers are common.
						s.Schedule(Duration(rng.Intn(8))*0.25, func() {
							note(id)
							if depth < 4 {
								spawn(depth + 1)
							}
						})
					default:
						k := rng.Intn(2)
						if queued {
							qs[k].Add(offsets[k], id)
						} else {
							s.Schedule(offsets[k], func() { note(id) })
						}
					}
				}
			}
			for i := 0; i < 50; i++ {
				s.At(Time(rng.Intn(40))*0.25, func() { spawn(0) })
			}
			s.RunAll()
			return got
		}
		direct, queued := run(false), run(true)
		if len(direct) != len(queued) {
			t.Fatalf("seed %d: %d firings queued, %d direct", seed, len(queued), len(direct))
		}
		for i := range direct {
			if direct[i] != queued[i] {
				t.Fatalf("seed %d: firing %d is %+v queued, %+v direct", seed, i, queued[i], direct[i])
			}
		}
	}
}

// TestTimersRearmAfterDrain checks a queue that emptied arms again on the
// next Add, from any later time.
func TestTimersRearmAfterDrain(t *testing.T) {
	s := New()
	var got []firing
	tm := NewTimers(s, func(id int) { got = append(got, firing{s.Now(), id}) })
	tm.Add(1, 1)
	s.RunAll()
	if s.Now() != 1 || outstanding(tm) != 0 || s.Pending() != 0 {
		t.Fatalf("Now=%v Len=%d Pending=%d after the first timer", s.Now(), outstanding(tm), s.Pending())
	}
	s.At(10, func() { tm.Add(0.5, 2) })
	s.RunAll()
	want := []firing{{1, 1}, {10.5, 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestTimersPanicOnOutOfOrderAdd checks a due time earlier than the
// queue's tail is refused, and so is a negative delay.
func TestTimersPanicOnOutOfOrderAdd(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	s := New()
	tm := NewTimers(s, func(int) {})
	tm.Add(5, 1)
	mustPanic("due before tail", func() { tm.Add(4, 2) })
	mustPanic("negative delay", func() { tm.Add(-1, 3) })
	tm.Add(5, 4) // equal due times are in order
	if outstanding(tm) != 2 {
		t.Errorf("Len = %d, want 2", outstanding(tm))
	}
}

// TestTimersBackingArrayBounded runs 1e5 add/fire cycles with at most k
// timers outstanding: the backing array must stay within a constant
// factor of k rather than grow with the number of timers ever added.
func TestTimersBackingArrayBounded(t *testing.T) {
	const k, cycles = 64, 100000
	s := New()
	tm := NewTimers(s, func(int) {})
	maxCap := 0
	for i := 0; i < cycles; i++ {
		tm.Add(1, i)
		// Fire whenever k are outstanding, and every so often drain a
		// few, so the live window slides through the array.
		for outstanding(tm) >= k || (i%7 == 0 && outstanding(tm) > k/2) {
			s.Step()
		}
		if c := cap(tm.q); c > maxCap {
			maxCap = c
		}
		s.Run(s.Now() + 0.001)
	}
	if maxCap > 4*k {
		t.Fatalf("backing array grew to cap %d with at most %d timers outstanding", maxCap, k)
	}
}

// BenchmarkTimers is the timer queue's steady state, gated at 0
// allocs/op by CI: one Add and one firing per op with 64 timers
// outstanding.
func BenchmarkTimers(b *testing.B) {
	s := New()
	tm := NewTimers(s, func(uint64) {})
	for i := 0; i < 64; i++ {
		tm.Add(1, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Add(1, uint64(i))
		s.Step()
	}
}
