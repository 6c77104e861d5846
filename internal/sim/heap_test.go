package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapOrderOracle drives the pending-event heap through a random
// push/pop script and checks every pop against a sorted (at, seq) oracle,
// including FIFO order among equal timestamps, which the grid delays
// force constantly.
func TestHeapOrderOracle(t *testing.T) {
	grid := []float64{0, 0, 0.5, 0.5, 1, 1, 1.5, 2, 10, 1e6, float64(Forever)}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var want []*event // pending events, sorted by (at, seq)
		now := 0.0
		seq := uint64(0)
		check := func(where string, op int) {
			got := h.pop()
			if got != want[0] {
				t.Fatalf("seed %d %s %d: heap popped (at=%v seq=%d), oracle wants (at=%v seq=%d)",
					seed, where, op, got.at, got.seq, want[0].at, want[0].seq)
			}
			want = want[1:]
			now = float64(got.at)
		}
		for op := 0; op < 5000; op++ {
			if rng.Float64() < 0.55 || len(want) == 0 {
				var d float64
				if rng.Float64() < 0.5 {
					d = grid[rng.Intn(len(grid))]
				} else {
					d = rng.Float64() * 100
				}
				ev := &event{at: Time(now) + Time(d), seq: seq}
				seq++
				h.push(ev)
				// ev has the largest seq yet, so (at, seq) order puts it
				// after every pending event at or before its time.
				i := sort.Search(len(want), func(i int) bool { return want[i].at > ev.at })
				want = append(want, nil)
				copy(want[i+1:], want[i:])
				want[i] = ev
			} else {
				check("op", op)
			}
			if len(h) != len(want) {
				t.Fatalf("seed %d op %d: heap has %d events, oracle has %d", seed, op, len(h), len(want))
			}
		}
		// Drain: remaining events must come out in oracle order.
		for i := 0; len(want) > 0; i++ {
			check("drain", i)
		}
		if h.pop() != nil {
			t.Fatalf("seed %d: drained heap still pops an event", seed)
		}
	}
}

// TestFarFutureOrder pins events near Forever: they fire in (at, seq)
// order after, and without disturbing, near-term events.
func TestFarFutureOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(Forever/2, func() { got = append(got, 2) })
	s.At(Forever/4, func() { got = append(got, 1) })
	s.Schedule(1, func() { got = append(got, 0) })
	s.At(Forever/2, func() { got = append(got, 3) })
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("far-future events fired out of order: %v", got)
		}
	}
}

// TestSparseAfterBurst pins a large burst popped down to a handful of
// far-apart stragglers: they must keep firing in order.
func TestSparseAfterBurst(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(3))
	var fired []Time
	for i := 0; i < 3000; i++ {
		s.Schedule(Duration(rng.Float64()), func() { fired = append(fired, s.Now()) })
	}
	for i := 0; i < 5; i++ {
		s.Schedule(Duration(1000+1000*float64(i)), func() { fired = append(fired, s.Now()) })
	}
	s.RunAll()
	if len(fired) != 3005 {
		t.Fatalf("fired %d events, want 3005", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("time went backwards at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}
