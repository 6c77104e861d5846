package serve

import (
	"testing"

	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// TestRetryTransfersFCFS is the regression test for transfer-queue
// ordering under repeated decode-block/unblock churn: a burst of
// equal-length prompts saturates decode KV so prefilled requests pile up
// in transferPending, a decode crash orphans and re-enters some of them,
// its restore exercises the fault-kick path (Restore → retryTransfers),
// and client cancels punch holes in the queue. The property: requests
// that start their transfer exactly once do so in prefill-completion
// order, i.e. strictly increasing request ID (one prefill instance and
// fixed-size prompts make arrival, prefill, and ID order coincide).
// Crash orphans re-prefill and legitimately transfer twice, so they are
// exempt from the ordering check.
func TestRetryTransfersFCFS(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumPrefill = 1
	cfg.NumDecode = 2
	cfg.Decisions = sched.NewDecisionLog()
	cfg.Faults = mustPlan(t, 3, "crash:d1@20+15; cancel@25x0.1")

	g := workload.NewGenerator(workload.Fixed(1024, 512, 2048), workload.PoissonArrivals{Rate: 60}, 11)
	reqs := g.Generate(400)
	res, err := RunDistServeFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}

	// The run must actually have churned: decode allocations failed (so
	// transferPending was exercised) and everything still drained cleanly.
	if res.DecodeKV.FailedAllocs == 0 {
		t.Fatal("decode KV never filled; the transfer queue was not exercised")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d requests unfinished", res.Unfinished)
	}
	if res.LiveKVBlocks != 0 {
		t.Fatalf("KV leak: %d blocks live after drain", res.LiveKVBlocks)
	}

	starts := map[uint64]int{}
	var order []*sched.RouteRecord
	kicked := false
	restoreAt := sim.Time(35) // crash:d1@20+15
	for _, rr := range cfg.Decisions.Routes {
		if rr.Reason != "transfer-round-robin" {
			continue
		}
		starts[rr.ReqID]++
		order = append(order, rr)
		if rr.Target == "decode-1" && rr.Time >= restoreAt {
			kicked = true
		}
	}
	if !kicked {
		t.Fatal("no transfer reached decode-1 after its restore; the fault-kick path did not fire")
	}
	last := uint64(0)
	for _, rr := range order {
		if starts[rr.ReqID] != 1 {
			continue // crash orphan: re-prefilled, transfers twice
		}
		if rr.ReqID <= last {
			t.Fatalf("FCFS violated: request %d started its transfer after request %d", rr.ReqID, last)
		}
		last = rr.ReqID
	}
	if len(order) == 0 {
		t.Fatal("no transfer decisions logged")
	}
}
