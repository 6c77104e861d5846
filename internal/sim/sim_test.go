package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now() = %v, want 3", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []Time
	s.Schedule(1, func() {
		fired = append(fired, s.Now())
		s.Schedule(1, func() {
			fired = append(fired, s.Now())
		})
	})
	s.RunAll()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Duration(i), func() { count++ })
	}
	s.Run(5)
	if count != 5 {
		t.Errorf("fired %d events before horizon, want 5", count)
	}
	if s.Now() != 5 {
		t.Errorf("Now() = %v, want clamped to horizon 5", s.Now())
	}
	s.RunAll()
	if count != 10 {
		t.Errorf("fired %d total, want 10", count)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestPastAtPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(1, func() {})
}

func TestStepAndCounters(t *testing.T) {
	s := New()
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	if !s.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if s.Now() != 1 || s.LastFired() != 1 || s.Pending() != 1 {
		t.Fatalf("Now=%v LastFired=%v Pending=%d, want 1,1,1", s.Now(), s.LastFired(), s.Pending())
	}
	s.Step()
	if s.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

// Property: events always fire in non-decreasing time order regardless of
// the insertion order of random delays.
func TestPropertyMonotoneFiring(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var fired []Time
		k := int(n%64) + 1
		for i := 0; i < k; i++ {
			s.Schedule(Duration(rng.Float64()*100), func() {
				fired = append(fired, s.Now())
			})
		}
		s.RunAll()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the simulator is deterministic — same schedule, same trace.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var fired []Time
		for i := 0; i < 100; i++ {
			d := Duration(rng.Float64() * 10)
			s.Schedule(d, func() {
				fired = append(fired, s.Now())
				if rng.Float64() < 0.3 {
					s.Schedule(Duration(rng.Float64()), func() { fired = append(fired, s.Now()) })
				}
			})
		}
		s.RunAll()
		return fired
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOResourceSerial(t *testing.T) {
	s := New()
	r := NewFIFOResource(s, "link")
	var doneAt []Time
	r.Submit(2, func() { doneAt = append(doneAt, s.Now()) })
	r.Submit(3, func() { doneAt = append(doneAt, s.Now()) })
	r.Submit(1, func() { doneAt = append(doneAt, s.Now()) })
	if !r.Busy() {
		t.Fatal("resource should be busy after submit")
	}
	if r.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", r.QueueLen())
	}
	if r.Backlog() != 4 {
		t.Fatalf("Backlog = %v, want 4", r.Backlog())
	}
	s.RunAll()
	want := []Time{2, 5, 6}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Fatalf("doneAt = %v, want %v", doneAt, want)
		}
	}
	if r.Busy() || r.Served != 3 || r.BusyTime != 6 {
		t.Errorf("final state busy=%v served=%d busyTime=%v", r.Busy(), r.Served, r.BusyTime)
	}
}

func TestFIFOResourceZeroDuration(t *testing.T) {
	s := New()
	r := NewFIFOResource(s, "link")
	order := []int{}
	r.Submit(0, func() { order = append(order, 1) })
	r.Submit(0, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestFIFOResourceSubmitFromCallback(t *testing.T) {
	s := New()
	r := NewFIFOResource(s, "link")
	var doneAt []Time
	r.Submit(1, func() {
		doneAt = append(doneAt, s.Now())
		r.Submit(1, func() { doneAt = append(doneAt, s.Now()) })
	})
	s.RunAll()
	if len(doneAt) != 2 || doneAt[0] != 1 || doneAt[1] != 2 {
		t.Fatalf("doneAt = %v, want [1 2]", doneAt)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Seconds(1.5) != 1.5 {
		t.Error("Seconds")
	}
	if Milliseconds(1500) != 1.5 {
		t.Error("Milliseconds")
	}
	if Microseconds(2e6) != 2 {
		t.Error("Microseconds")
	}
	if d := Time(5).Sub(Time(2)); d != 3 {
		t.Errorf("Sub = %v", d)
	}
	if tm := Time(5).Add(2); tm != 7 {
		t.Errorf("Add = %v", tm)
	}
	if Duration(0.5).Seconds() != 0.5 || Duration(0.5).Milliseconds() != 500 {
		t.Error("Duration accessors")
	}
}

func TestRunUntilHorizonWithPending(t *testing.T) {
	// Events strictly beyond the horizon must stay pending while the clock
	// lands exactly on the horizon — systems rely on Now() == deadline when
	// the run is bounded, not on the clock stopping at the last fired event.
	s := New()
	fired := 0
	s.Schedule(1, func() { fired++ })
	s.Schedule(10, func() { fired++ })
	s.Run(Time(3.5))
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if s.Now() != 3.5 {
		t.Errorf("Now() = %v, want exactly 3.5", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	// A later bounded run resumes from the clamped clock; with the queue
	// drained the clock rests at the last fired event, not the horizon.
	s.Run(Time(20))
	if fired != 2 || s.Now() != 10 {
		t.Errorf("after second run: fired=%d Now()=%v, want 2 and 10", fired, s.Now())
	}
}
