package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"windserve/internal/sim"
)

// driveRecorders feeds the same synthetic lifecycle stream into an exact
// and a streaming recorder.
func driveRecorders(n int, slo SLO, maxRecords int) (*Recorder, *Recorder) {
	exact := NewRecorder()
	stream := NewStreamingRecorder(slo, maxRecords)
	rng := rand.New(rand.NewSource(42))
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		now = now.Add(sim.Duration(rng.ExpFloat64() * 0.05))
		arr := now
		ttft := sim.Duration(0.02 + rng.ExpFloat64()*0.08)
		tokens := 2 + rng.Intn(200)
		tpot := sim.Duration(0.01 + rng.Float64()*0.04)
		for _, rec := range []*Recorder{exact, stream} {
			rec.Arrive(id, 100+rng.Intn(5)*0, tokens, arr)
			rec.PrefillStart(id, arr.Add(ttft/2))
			rec.FirstToken(id, arr.Add(ttft))
			rec.DecodeStart(id, arr.Add(ttft+0.005))
			rec.Complete(id, arr.Add(ttft+sim.Duration(float64(tpot)*float64(tokens-1))))
		}
	}
	return exact, stream
}

// TestStreamingAgreesWithExact is the satellite's acceptance check: on
// 100k samples the streaming digest matches the exact Summarize on
// count and means bit-for-bit (same accumulation order), attainment
// exactly, and percentile sketches within 1%.
func TestStreamingAgreesWithExact(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(0.1), TPOT: sim.Seconds(0.04)}
	exact, stream := driveRecorders(100_000, slo, 1000)
	want := Summarize(exact.Completed(), slo)
	got := stream.StreamSummary()

	if got.Requests != want.Requests {
		t.Fatalf("Requests: stream %d, exact %d", got.Requests, want.Requests)
	}
	exactFields := map[string][2]float64{
		"TTFTMean":         {got.TTFTMean.Seconds(), want.TTFTMean.Seconds()},
		"TPOTMean":         {got.TPOTMean.Seconds(), want.TPOTMean.Seconds()},
		"PrefillQueueMean": {got.PrefillQueueMean.Seconds(), want.PrefillQueueMean.Seconds()},
		"DecodeQueueMean":  {got.DecodeQueueMean.Seconds(), want.DecodeQueueMean.Seconds()},
		"Attainment":       {got.Attainment, want.Attainment},
		"TTFTAttainment":   {got.TTFTAttainment, want.TTFTAttainment},
		"TPOTAttainment":   {got.TPOTAttainment, want.TPOTAttainment},
		"ThroughputRPS":    {got.ThroughputRPS, want.ThroughputRPS},
		"GoodputRPS":       {got.GoodputRPS, want.GoodputRPS},
		"TokensPerSec":     {got.TokensPerSec, want.TokensPerSec},
	}
	for name, v := range exactFields {
		if v[0] != v[1] {
			t.Errorf("%s: stream %v != exact %v (must be identical)", name, v[0], v[1])
		}
	}
	sketchFields := map[string][2]float64{
		"TTFTP50": {got.TTFTP50.Seconds(), want.TTFTP50.Seconds()},
		"TTFTP99": {got.TTFTP99.Seconds(), want.TTFTP99.Seconds()},
		"TPOTP50": {got.TPOTP50.Seconds(), want.TPOTP50.Seconds()},
		"TPOTP99": {got.TPOTP99.Seconds(), want.TPOTP99.Seconds()},
	}
	for name, v := range sketchFields {
		if err := math.Abs(v[0]-v[1]) / v[1]; err > 0.01 {
			t.Errorf("%s: sketch %v vs exact %v, relative error %.4f > 1%%", name, v[0], v[1], err)
		}
	}
}

// TestStreamingRetentionCap: the streaming recorder keeps only the first
// maxRecords records per class and recycles the rest.
func TestStreamingRetentionCap(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(0.1), TPOT: sim.Seconds(0.04)}
	_, stream := driveRecorders(5000, slo, 100)
	if n := len(stream.Completed()); n != 100 {
		t.Errorf("retained %d completed records, want cap 100", n)
	}
	cs := stream.ClassStats(OutcomeCompleted)
	if cs.Count != 5000 {
		t.Errorf("class count %d, want 5000", cs.Count)
	}
	if cs.E2EMean <= 0 || cs.E2EMax < cs.E2EMean {
		t.Errorf("implausible class stats: %v", cs)
	}
	// The retained head must be the first records in completion order.
	if stream.Completed()[0].ID == 0 || stream.Completed()[99].Completion == 0 {
		t.Error("retained records look unfinalized")
	}
}

// TestStreamingAbortReject covers the other classes' digests and pooling.
func TestStreamingAbortReject(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(0.1), TPOT: sim.Seconds(0.04)}
	rec := NewStreamingRecorder(slo, 10)
	for i := 0; i < 50; i++ {
		id := uint64(i + 1)
		rec.Arrive(id, 10, 5, sim.Time(float64(i)))
		switch i % 3 {
		case 0:
			rec.Reject(id, sim.Time(float64(i)+0.001))
		case 1:
			rec.FirstToken(id, sim.Time(float64(i)+0.1))
			rec.Abort(id, sim.Time(float64(i)+0.2), 2)
		default:
			rec.FirstToken(id, sim.Time(float64(i)+0.1))
			rec.Complete(id, sim.Time(float64(i)+0.3))
		}
	}
	if got := rec.ClassStats(OutcomeRejected).Count; got != 17 {
		t.Errorf("rejected count %d, want 17", got)
	}
	if got := rec.ClassStats(OutcomeAborted).Count; got != 17 {
		t.Errorf("aborted count %d, want 17", got)
	}
	if got := rec.ClassStats(OutcomeCompleted).Count; got != 16 {
		t.Errorf("completed count %d, want 16", got)
	}
	if n := len(rec.Aborted()); n != 10 {
		t.Errorf("retained %d aborted records, want cap 10", n)
	}
	if rec.Outstanding() != 0 {
		t.Errorf("outstanding %d, want 0", rec.Outstanding())
	}
}

// TestWriteRecordsCSVFormat pins the strconv fast path against the
// fmt.Sprintf formatting it replaced.
func TestWriteRecordsCSVFormat(t *testing.T) {
	rec := NewRecorder()
	rec.Arrive(7, 128, 32, 1.25)
	rec.PrefillStart(7, 1.375)
	rec.FirstToken(7, 1.5)
	rec.DecodeStart(7, 1.625)
	rec.Complete(7, 3.875)
	var sb strings.Builder
	if err := WriteRecordsCSV(&sb, rec.Completed()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row", len(lines))
	}
	want := "7,128,32,1.250000,1.375000,1.500000,1.625000,3.875000," +
		"250.0000,76.6129,2625.0000,125.0000,125.0000,completed,32"
	if lines[1] != want {
		t.Errorf("row = %q\nwant  %q", lines[1], want)
	}
}
