package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the binary-heap pending set the kernel used before the
// calendar queue, kept as an executable specification of the (at, seq)
// total order for equivalence tests and as the baseline in the
// event-queue benchmarks.
type refHeap []*event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	return ev
}

// TestCalendarHeapEquivalence drives the calendar queue and the reference
// heap through the same random push/remove/pop script and checks they
// yield the exact same event at every pop — including FIFO order among
// equal timestamps, which the grid delays force constantly.
func TestCalendarHeapEquivalence(t *testing.T) {
	grid := []float64{0, 0, 0.5, 0.5, 1, 1, 1.5, 2, 10, 1e6, float64(Forever)}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cq := newCalendarQueue()
		var hq refHeap
		type pair struct{ c, h *event }
		live := map[uint64]pair{}
		var liveSeqs []uint64
		now := 0.0
		seq := uint64(0)
		for op := 0; op < 5000; op++ {
			x := rng.Float64()
			switch {
			case x < 0.55 || cq.n == 0:
				var d float64
				if rng.Float64() < 0.5 {
					d = grid[rng.Intn(len(grid))]
				} else {
					d = rng.Float64() * 100
				}
				at := Time(now) + Time(d)
				ce := &event{at: at, seq: seq}
				he := &event{at: at, seq: seq}
				cq.push(ce)
				heap.Push(&hq, he)
				live[seq] = pair{ce, he}
				liveSeqs = append(liveSeqs, seq)
				seq++
			case x < 0.75 && len(liveSeqs) > 0:
				i := rng.Intn(len(liveSeqs))
				sq := liveSeqs[i]
				liveSeqs[i] = liveSeqs[len(liveSeqs)-1]
				liveSeqs = liveSeqs[:len(liveSeqs)-1]
				p := live[sq]
				delete(live, sq)
				cq.remove(p.c)
				heap.Remove(&hq, p.h.index)
			default:
				ce := cq.pop()
				he := heap.Pop(&hq).(*event)
				if ce.at != he.at || ce.seq != he.seq {
					t.Fatalf("seed %d op %d: calendar popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
						seed, op, ce.at, ce.seq, he.at, he.seq)
				}
				now = float64(ce.at)
				p := live[ce.seq]
				delete(live, ce.seq)
				for i, sq := range liveSeqs {
					if sq == ce.seq {
						liveSeqs[i] = liveSeqs[len(liveSeqs)-1]
						liveSeqs = liveSeqs[:len(liveSeqs)-1]
						break
					}
				}
				_ = p
			}
			if cq.n != hq.Len() {
				t.Fatalf("seed %d op %d: calendar has %d events, heap has %d", seed, op, cq.n, hq.Len())
			}
		}
		// Drain: remaining events must come out in identical order.
		for cq.n > 0 {
			ce := cq.pop()
			he := heap.Pop(&hq).(*event)
			if ce.at != he.at || ce.seq != he.seq {
				t.Fatalf("seed %d drain: calendar popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
					seed, ce.at, ce.seq, he.at, he.seq)
			}
		}
	}
}

// TestCalendarFarFuture pins the overflow path: events near Forever clamp
// to the overflow window and are reached through the direct-search
// fallback, in (at, seq) order, without disturbing near-term events.
func TestCalendarFarFuture(t *testing.T) {
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

// TestCalendarSparseAfterBurst pins the shrink path: a large burst popped
// down to a handful of stragglers must keep firing in order as the bucket
// array contracts underneath them.
func TestCalendarSparseAfterBurst(t *testing.T) {
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

// benchDelays returns a fixed table of pseudo-random delays so the
// benchmark loop pays no rng cost.
func benchDelays(n int, scale float64) []Time {
	rng := rand.New(rand.NewSource(11))
	out := make([]Time, n)
	for i := range out {
		out[i] = Time(rng.Float64() * scale)
	}
	return out
}

// BenchmarkEventQueueHeap10k / BenchmarkEventQueueCalendar10k measure the
// classic hold model (pop the minimum, reinsert at now+delay) with 10k
// pending events — the occupancy a mega-run's deadline timers and
// per-instance iteration events produce. The heap pays O(log n) sifts per
// operation; the calendar queue is O(1) amortized.
func BenchmarkEventQueueHeap10k(b *testing.B) {
	delays := benchDelays(4096, 20)
	hq := make(refHeap, 0, 10001)
	for i := 0; i < 10000; i++ {
		heap.Push(&hq, &event{at: delays[i&4095], seq: uint64(i)})
	}
	seq := uint64(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := heap.Pop(&hq).(*event)
		ev.at += delays[i&4095]
		ev.seq = seq
		seq++
		heap.Push(&hq, ev)
	}
}

func BenchmarkEventQueueCalendar10k(b *testing.B) {
	delays := benchDelays(4096, 20)
	cq := newCalendarQueue()
	for i := 0; i < 10000; i++ {
		cq.push(&event{at: delays[i&4095], seq: uint64(i)})
	}
	seq := uint64(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := cq.pop()
		ev.at += delays[i&4095]
		ev.seq = seq
		seq++
		cq.push(ev)
	}
}

// BenchmarkServeSteady is the whole-kernel steady state the CI
// alloc-budget job gates on: a simulator holding 10k pending events doing
// schedule+fire cycles must run allocation-free.
func BenchmarkServeSteady(b *testing.B) {
	s := New()
	fn := func() {}
	delays := benchDelays(4096, 20)
	for i := 0; i < 10000; i++ {
		s.Schedule(Duration(delays[i&4095]), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(20, fn)
		s.Step()
	}
}
