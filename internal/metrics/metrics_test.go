package metrics

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"windserve/internal/sim"
)

// buildRecord runs one request through a recorder with the given timeline.
func buildRecord(t *testing.T, output int, arrival, pStart, first, dStart, done sim.Time) *Record {
	t.Helper()
	rec := NewRecorder()
	rec.Arrive(1, 100, output, arrival)
	rec.PrefillStart(1, pStart)
	rec.FirstToken(1, first)
	rec.DecodeStart(1, dStart)
	rec.Complete(1, done)
	return rec.Completed()[0]
}

func TestRecordLatencies(t *testing.T) {
	// 10 output tokens: first at t=2, done at t=2.9 → 9 gaps of 0.1.
	r := buildRecord(t, 10, 1, 1.5, 2, 2.1, 2.9)
	if got := r.TTFT(); math.Abs(got.Seconds()-1) > 1e-9 {
		t.Errorf("TTFT = %v, want 1s", got)
	}
	if got := r.TPOT(); math.Abs(got.Seconds()-0.1) > 1e-9 {
		t.Errorf("TPOT = %v, want 0.1s", got)
	}
	if got := r.E2E(); math.Abs(got.Seconds()-1.9) > 1e-9 {
		t.Errorf("E2E = %v", got)
	}
	if got := r.PrefillQueueDelay(); math.Abs(got.Seconds()-0.5) > 1e-9 {
		t.Errorf("prefill queue = %v", got)
	}
	if got := r.DecodeQueueDelay(); math.Abs(got.Seconds()-0.1) > 1e-9 {
		t.Errorf("decode queue = %v", got)
	}
}

func TestSingleTokenTPOT(t *testing.T) {
	r := buildRecord(t, 1, 0, 0, 1, 1, 1)
	if r.TPOT() != 0 {
		t.Errorf("single-token TPOT = %v, want 0", r.TPOT())
	}
	if r.DecodeQueueDelay() != 0 {
		t.Error("single-token decode queue should be 0")
	}
}

func TestMeetsSLO(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(1), TPOT: sim.Seconds(0.1)}
	good := buildRecord(t, 11, 0, 0, 0.5, 0.6, 1.5) // TTFT 0.5, TPOT 0.1
	if !good.MeetsSLO(slo) {
		t.Errorf("good record fails SLO: TTFT=%v TPOT=%v", good.TTFT(), good.TPOT())
	}
	lateFirst := buildRecord(t, 11, 0, 0, 1.5, 1.6, 2.0)
	if lateFirst.MeetsSLO(slo) {
		t.Error("TTFT violator passes")
	}
	slowTokens := buildRecord(t, 11, 0, 0, 0.5, 0.6, 3.0)
	if slowTokens.MeetsSLO(slo) {
		t.Error("TPOT violator passes")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	rec := NewRecorder()
	rec.Arrive(1, 10, 5, 0)
	rec.Arrive(2, 10, 5, 1)
	if rec.Outstanding() != 2 {
		t.Errorf("Outstanding = %d", rec.Outstanding())
	}
	rec.PrefillStart(1, 2)
	rec.PrefillStart(1, 3) // second call must not overwrite
	rec.FirstToken(1, 4)
	rec.DecodeStart(1, 5)
	rec.DecodeStart(1, 6) // first call wins
	rec.Complete(1, 7)
	if rec.Outstanding() != 1 || len(rec.Completed()) != 1 {
		t.Error("lifecycle counts wrong")
	}
	r := rec.Completed()[0]
	if r.PrefillStart != 2 || r.DecodeStart != 5 {
		t.Errorf("first-call-wins violated: %+v", r)
	}
}

func TestRecorderPanics(t *testing.T) {
	rec := NewRecorder()
	rec.Arrive(1, 10, 5, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate arrival should panic")
			}
		}()
		rec.Arrive(1, 10, 5, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown id should panic")
			}
		}()
		rec.FirstToken(99, 1)
	}()
}

func TestSummarize(t *testing.T) {
	rec := NewRecorder()
	// 100 requests: TTFT = i ms (i=1..100), TPOT = 50 ms each (2 tokens,
	// gap 50 ms).
	for i := 1; i <= 100; i++ {
		id := uint64(i)
		at := sim.Time(i)
		rec.Arrive(id, 10, 2, at)
		rec.PrefillStart(id, at)
		first := at.Add(sim.Milliseconds(float64(i)))
		rec.FirstToken(id, first)
		rec.DecodeStart(id, first)
		rec.Complete(id, first.Add(sim.Milliseconds(50)))
	}
	slo := SLO{TTFT: sim.Milliseconds(50), TPOT: sim.Milliseconds(60)}
	s := Summarize(rec.Completed(), slo)
	if s.Requests != 100 {
		t.Fatalf("Requests = %d", s.Requests)
	}
	if math.Abs(s.TTFTP50.Milliseconds()-50.5) > 0.6 {
		t.Errorf("TTFT P50 = %v, want ~50.5ms", s.TTFTP50)
	}
	if math.Abs(s.TTFTP99.Milliseconds()-99) > 1.1 {
		t.Errorf("TTFT P99 = %v, want ~99ms", s.TTFTP99)
	}
	if math.Abs(s.TPOTP90.Milliseconds()-50) > 1e-6 {
		t.Errorf("TPOT P90 = %v, want 50ms", s.TPOTP90)
	}
	// Exactly 50 of 100 meet TTFT <= 50 ms, all meet TPOT.
	if s.Attainment != 0.5 || s.TTFTAttainment != 0.5 || s.TPOTAttainment != 1.0 {
		t.Errorf("attainment = %v/%v/%v", s.Attainment, s.TTFTAttainment, s.TPOTAttainment)
	}
	if s.ThroughputRPS <= 0 || s.TokensPerSec <= 0 {
		t.Error("throughput not computed")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, SLO{})
	if s.Requests != 0 || s.Attainment != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.MeanOver(g.ObservedTime()) != 0 {
		t.Error("empty gauge mean should be 0")
	}
	g.AddInterval(0, 10, 0.8)
	g.AddInterval(10, 20, 0.2)
	if m := g.MeanOver(g.ObservedTime()); math.Abs(m-0.5) > 1e-9 {
		t.Errorf("mean over observed time = %v, want 0.5", m)
	}
	if m := g.MeanOver(sim.Seconds(40)); math.Abs(m-0.25) > 1e-9 {
		t.Errorf("MeanOver(40) = %v, want 0.25", m)
	}
	if g.ObservedTime() != 20 {
		t.Errorf("ObservedTime = %v", g.ObservedTime())
	}
	if g.MeanOver(0) != 0 {
		t.Error("MeanOver(0) should be 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("backwards interval should panic")
			}
		}()
		g.AddInterval(5, 4, 1)
	}()
}

func TestWriteRecordsCSV(t *testing.T) {
	rec := NewRecorder()
	rec.Arrive(1, 100, 5, 0)
	rec.PrefillStart(1, 0.5)
	rec.FirstToken(1, 1)
	rec.DecodeStart(1, 1.2)
	rec.Complete(1, 2)
	var sb strings.Builder
	if err := WriteRecordsCSV(&sb, rec.Completed()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][0] != "1" || recs[1][1] != "100" {
		t.Errorf("row = %v", recs[1])
	}
	// TTFT column (index 8) = 1000 ms.
	if recs[1][8] != "1000.0000" {
		t.Errorf("ttft = %v", recs[1][8])
	}
}

// Property: attainment is monotone in the SLO — loosening both targets
// never lowers the attainment rate.
func TestPropertyAttainmentMonotone(t *testing.T) {
	rec := NewRecorder()
	for i := 1; i <= 200; i++ {
		id := uint64(i)
		rec.Arrive(id, 10, 5, 0)
		rec.PrefillStart(id, 0)
		first := sim.Time(float64(i) * 0.01)
		rec.FirstToken(id, first)
		rec.DecodeStart(id, first)
		rec.Complete(id, first.Add(sim.Duration(float64(i)*0.001)))
	}
	recs := rec.Completed()
	f := func(a, b uint8) bool {
		t1 := sim.Duration(float64(a%100) * 0.01)
		t2 := t1 + sim.Duration(float64(b%50)*0.01)
		s1 := Summarize(recs, SLO{TTFT: t1, TPOT: t1})
		s2 := Summarize(recs, SLO{TTFT: t2, TPOT: t2})
		return s2.Attainment >= s1.Attainment
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are ordered P50 <= P90 <= P99 and within range.
func TestPropertyPercentileOrder(t *testing.T) {
	f := func(seed uint32) bool {
		rec := NewRecorder()
		v := float64(seed%1000) + 1
		for i := 1; i <= 50; i++ {
			id := uint64(i)
			rec.Arrive(id, 10, 3, 0)
			rec.PrefillStart(id, 0)
			first := sim.Time(v * float64(i) * 1e-4)
			rec.FirstToken(id, first)
			rec.DecodeStart(id, first)
			rec.Complete(id, first.Add(0.01))
		}
		s := Summarize(rec.Completed(), SLO{})
		return s.TTFTP50 <= s.TTFTP90 && s.TTFTP90 <= s.TTFTP99 &&
			s.TPOTP50 <= s.TPOTP90 && s.TPOTP90 <= s.TPOTP99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
