package serve

import (
	"testing"

	"windserve/internal/sched"
	"windserve/internal/trace"
	"windserve/internal/workload"
)

// runTraced runs WindServe with full observability on and returns the
// result plus the collectors.
func runTraced(t *testing.T, cfg Config, rate float64, n int) (*Result, *trace.Tracer, *sched.DecisionLog) {
	t.Helper()
	cfg.Tracer = trace.New()
	cfg.Decisions = sched.NewDecisionLog()
	res, err := RunWindServeFrom(cfg, workload.NewSliceSource(trace13B(rate, n, 42)))
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Tracer, cfg.Decisions
}

// TestWindServeLogsEveryDispatch: Algorithm 1 must leave an audit entry
// for every arriving request — a DispatchRecord when the Coordinator
// weighed candidates, or a RouteRecord on the fallback path — and the
// decode-dispatch count in the log must agree with the Result counter.
func TestWindServeLogsEveryDispatch(t *testing.T) {
	cfg := cfg13B(t)
	res, _, dl := runTraced(t, cfg, 3, 200)
	admitted := res.Requests - res.Rejected
	routesForArrivals := 0
	for _, r := range dl.Routes {
		if r.Reason != "transfer-round-robin" {
			routesForArrivals++
		}
	}
	if got := len(dl.Dispatches) + routesForArrivals; got != admitted {
		t.Errorf("dispatch+route records = %d, want one per admitted request (%d)", got, admitted)
	}
	toDecode := 0
	for _, d := range dl.Dispatches {
		if d.ToDecode {
			toDecode++
		}
		if len(d.Candidates) == 0 {
			t.Fatalf("req %d: dispatch logged with no candidates", d.ReqID)
		}
		for _, c := range d.Candidates {
			if c.PredictedTTFT != c.ComputeTTFT+c.TransferTTFT {
				t.Fatalf("req %d, %s: predicted %v != %v + %v",
					d.ReqID, c.Instance, c.PredictedTTFT, c.ComputeTTFT, c.TransferTTFT)
			}
			if c.PredictedTTFT <= 0 {
				t.Fatalf("req %d, %s: non-positive predicted TTFT %v", d.ReqID, c.Instance, c.PredictedTTFT)
			}
		}
		if d.Target == "" {
			t.Fatalf("req %d: dispatch with empty target", d.ReqID)
		}
	}
	if toDecode != res.Dispatched {
		t.Errorf("ToDecode records = %d, Result.Dispatched = %d", toDecode, res.Dispatched)
	}
}

// TestWindServeTransferRateWarmStart: with no faults, the reported link
// estimate must be non-zero even before any copy completes (the
// warm-start fix for PredictTransfer returning 0 on the first dispatch).
func TestWindServeTransferRateWarmStart(t *testing.T) {
	cfg := cfg13B(t)
	res, _, dl := runTraced(t, cfg, 2, 50)
	if res.TransferRateBps <= 0 {
		t.Fatalf("TransferRateBps = %v, want warm-started > 0", res.TransferRateBps)
	}
	// Every dispatch predicted a non-zero transfer term for prefill
	// placements — the bug was a zero estimate until the first copy.
	for _, d := range dl.Dispatches {
		for _, c := range d.Candidates {
			if c.Instance == "prefill-0" && c.TransferTTFT <= 0 {
				t.Fatalf("req %d: zero transfer term on a prefill candidate", d.ReqID)
			}
		}
	}
}

// TestWindServeEWMATracksDegradedLink: a degraded interconnect must pull
// the Profiler's EWMA well below the healthy estimate — the observed
// rate, not the nominal one, is what Dynamic Prefill Dispatch uses.
func TestWindServeEWMATracksDegradedLink(t *testing.T) {
	cfg := cfg13B(t)
	healthy, _, _ := runTraced(t, cfg, 3, 200)

	bad := cfg13B(t)
	bad.Faults = mustPlan(t, 1, "degrade@0x0.2")
	degraded, _, _ := runTraced(t, bad, 3, 200)

	if degraded.TransferRateBps <= 0 {
		t.Fatal("degraded run reported zero transfer rate")
	}
	if degraded.TransferRateBps >= 0.5*healthy.TransferRateBps {
		t.Errorf("degraded EWMA %.3g B/s did not converge below healthy %.3g B/s",
			degraded.TransferRateBps, healthy.TransferRateBps)
	}
}

// TestWindServeTraceCoversInstances: the tracer must carry at least one
// lane (span track) per instance and occupancy counters for each.
func TestWindServeTraceCoversInstances(t *testing.T) {
	cfg := cfg13B(t)
	_, tr, _ := runTraced(t, cfg, 3, 200)
	lanes := make(map[string]bool)
	for _, l := range tr.Lanes() {
		lanes[l] = true
	}
	counters := make(map[string]bool)
	for _, c := range tr.CounterTracks() {
		counters[c] = true
	}
	for _, ins := range []string{"prefill-0", "decode-0"} {
		if !lanes[ins] {
			t.Errorf("no span lane for %s (lanes: %v)", ins, tr.Lanes())
		}
		if !counters[ins+"/kv_util"] {
			t.Errorf("no kv_util counter for %s (tracks: %v)", ins, tr.CounterTracks())
		}
	}
	if len(tr.Spans) == 0 {
		t.Fatal("traced run produced no spans")
	}
}
