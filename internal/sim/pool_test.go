package sim

import (
	"math/rand"
	"testing"
)

// TestPoolReusesEvents checks the free list actually eliminates steady-
// state allocation: schedule/fire cycles after warm-up allocate nothing.
func TestPoolReusesEvents(t *testing.T) {
	s := New()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(1, func() {})
		s.Step()
	})
	if allocs > 0 {
		t.Fatalf("schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSimulatorScheduleFire measures the kernel's hottest path: one
// Schedule plus the Step that fires it.
func BenchmarkSimulatorScheduleFire(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(1, fn)
		s.Step()
	}
}

// BenchmarkSimulatorScheduleFireDeep is the same with a deep pending
// queue, so heap sift costs at realistic occupancy are visible.
func BenchmarkSimulatorScheduleFireDeep(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.Schedule(Duration(1+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(2048, fn)
		s.Step()
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
