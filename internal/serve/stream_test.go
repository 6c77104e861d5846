package serve

import (
	"math"
	"runtime"
	"testing"

	"windserve/internal/model"
	"windserve/internal/workload"
)

// streamTestConfig returns a small OPT-13B config suitable for fast runs.
func streamTestConfig(t *testing.T) Config {
	t.Helper()
	m, err := model.ByName("OPT-13B")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestStreamingRunAgreesWithExact runs the same trace through the default
// (exact) recorder and the streaming recorder. Counts, attainment, and
// means must match bit-for-bit — the streaming digest accumulates the same
// float64 sums in the same completion order — while percentile fields come
// from P² sketches and only need to be close.
func TestStreamingRunAgreesWithExact(t *testing.T) {
	cfg := streamTestConfig(t)
	g := workload.NewGenerator(workload.ShareGPT(),
		workload.PoissonArrivals{Rate: 3.0 * float64(cfg.TotalGPUs())}, 42)
	reqs := g.Generate(800)

	exact, err := RunWindServeFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Stream = StreamPolicy{Enabled: true, MaxRecords: 100}
	stream, err := RunWindServeFrom(scfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}

	if stream.Requests != exact.Requests || stream.Aborted != exact.Aborted ||
		stream.Rejected != exact.Rejected || stream.Unfinished != exact.Unfinished {
		t.Fatalf("counts diverge: stream {%d %d %d %d} exact {%d %d %d %d}",
			stream.Requests, stream.Aborted, stream.Rejected, stream.Unfinished,
			exact.Requests, exact.Aborted, exact.Rejected, exact.Unfinished)
	}
	if stream.Elapsed != exact.Elapsed {
		t.Fatalf("elapsed diverges: stream %v exact %v", stream.Elapsed, exact.Elapsed)
	}
	gs, es := stream.Summary, exact.Summary
	exactPairs := map[string][2]float64{
		"Requests":       {float64(gs.Requests), float64(es.Requests)},
		"TTFTMean":       {gs.TTFTMean.Seconds(), es.TTFTMean.Seconds()},
		"TPOTMean":       {gs.TPOTMean.Seconds(), es.TPOTMean.Seconds()},
		"Attainment":     {gs.Attainment, es.Attainment},
		"TTFTAttainment": {gs.TTFTAttainment, es.TTFTAttainment},
		"TPOTAttainment": {gs.TPOTAttainment, es.TPOTAttainment},
		"ThroughputRPS":  {gs.ThroughputRPS, es.ThroughputRPS},
		"TokensPerSec":   {gs.TokensPerSec, es.TokensPerSec},
	}
	for name, v := range exactPairs {
		if v[0] != v[1] {
			t.Errorf("%s: stream %v != exact %v (must be identical)", name, v[0], v[1])
		}
	}
	sketchPairs := map[string][2]float64{
		"TTFTP50": {gs.TTFTP50.Seconds(), es.TTFTP50.Seconds()},
		"TTFTP99": {gs.TTFTP99.Seconds(), es.TTFTP99.Seconds()},
		"TPOTP50": {gs.TPOTP50.Seconds(), es.TPOTP50.Seconds()},
		"TPOTP99": {gs.TPOTP99.Seconds(), es.TPOTP99.Seconds()},
	}
	for name, v := range sketchPairs {
		if v[1] == 0 {
			continue
		}
		if relErr := math.Abs(v[0]-v[1]) / v[1]; relErr > 0.05 {
			t.Errorf("%s: sketch %v vs exact %v, relative error %.4f > 5%%",
				name, v[0], v[1], relErr)
		}
	}
	if n := len(stream.Records); n != 100 {
		t.Errorf("streaming run retained %d records, want cap 100", n)
	}
}

// TestStreamingSourceMatchesSlice: feeding the identical generator stream
// through RunDistServeFrom gives the same result as the materialized trace.
func TestStreamingSourceMatchesSlice(t *testing.T) {
	cfg := streamTestConfig(t)
	cfg.Stream = StreamPolicy{Enabled: true, MaxRecords: 50}
	rate := 3.0 * float64(cfg.TotalGPUs())
	reqs := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate}, 7).Generate(500)
	src := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate}, 7).Source(500)

	a, err := RunDistServeFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDistServeFrom(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.Elapsed != b.Elapsed ||
		a.Summary.TTFTMean != b.Summary.TTFTMean || a.Summary.Attainment != b.Summary.Attainment {
		t.Fatalf("slice vs source diverge:\nslice  %+v\nsource %+v", a.Summary, b.Summary)
	}
}

// TestStreamingBoundedHeap is the CI memory-budget gate: steady-state heap
// growth must be O(1) in the request count when streaming. Two streaming
// runs sized 4x apart must not see live-heap growth anywhere near 4x —
// retained state is O(instances + in-flight + MaxRecords), not O(n).
func TestStreamingBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run memory measurement")
	}
	cfg := streamTestConfig(t)
	cfg.Stream = StreamPolicy{Enabled: true, MaxRecords: 100}
	rate := 3.0 * float64(cfg.TotalGPUs())

	liveAfter := func(n int) float64 {
		src := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate}, 11).Source(n)
		res, err := RunDistServeFrom(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != n {
			t.Fatalf("ran %d requests, want %d", res.Requests, n)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}

	small := liveAfter(2_000)
	large := liveAfter(8_000)
	// Generous margin: the 4x run may keep at most 2x the live heap (noise
	// from GC timing and pooled buffers), never the ~4x an O(n) recorder
	// would show.
	if ratio := large / small; ratio > 2.0 {
		t.Errorf("live heap grew %.2fx across a 4x longer run (small %.0f, large %.0f) — streaming state not bounded",
			ratio, small, large)
	}
}
