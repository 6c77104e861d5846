package serve

import (
	"math/rand"
	"testing"

	"windserve/internal/model"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// TestPropertySystemInvariants fuzzes all three systems across random
// seeds, rates, and models, and checks conservation invariants:
//
//   - every submitted request completes exactly once (or is counted
//     unfinished at the horizon),
//   - completed records carry physically-consistent timestamps,
//   - output token counts match the workload exactly.
func TestPropertySystemInvariants(t *testing.T) {
	systems := []struct {
		name string
		run  runFn
	}{
		{"vLLM", RunVLLMFrom}, {"DistServe", RunDistServeFrom}, {"WindServe", RunWindServeFrom},
	}
	models := []model.Config{model.OPT13B, model.LLaMA213B}
	datasets := []workload.Dataset{workload.ShareGPT(), workload.LongBench()}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		m := models[rng.Intn(len(models))]
		ds := datasets[rng.Intn(len(datasets))]
		if ds.MaxContext > m.MaxContext {
			ds.MaxContext = m.MaxContext
		}
		rate := 1 + rng.Float64()*4
		seed := rng.Int63()
		cfg, err := DefaultConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Horizon = sim.Seconds(600)
		g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: rate * 4}, seed)
		reqs := g.Generate(150)
		byID := map[uint64]workload.Request{}
		for _, w := range reqs {
			byID[w.ID] = w
		}
		for _, sys := range systems {
			res, err := sys.run(cfg, workload.NewSliceSource(reqs))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sys.name, err)
			}
			if got := len(res.Records) + res.Unfinished; got != len(reqs) {
				t.Fatalf("trial %d %s: %d completed + %d unfinished != %d submitted",
					trial, sys.name, len(res.Records), res.Unfinished, len(reqs))
			}
			seen := map[uint64]bool{}
			for _, r := range res.Records {
				if seen[r.ID] {
					t.Fatalf("trial %d %s: request %d completed twice", trial, sys.name, r.ID)
				}
				seen[r.ID] = true
				w, ok := byID[r.ID]
				if !ok {
					t.Fatalf("trial %d %s: unknown request %d completed", trial, sys.name, r.ID)
				}
				if r.OutputTokens != w.OutputTokens || r.PromptTokens != w.PromptTokens {
					t.Fatalf("trial %d %s: request %d token counts mutated", trial, sys.name, r.ID)
				}
				// Timeline sanity: arrival <= prefill start <= first token
				// <= completion; decode start within [first token, completion].
				if r.PrefillStart < r.Arrival || r.FirstToken < r.PrefillStart || r.Completion < r.FirstToken {
					t.Fatalf("trial %d %s: request %d timeline inverted: %+v", trial, sys.name, r.ID, r)
				}
				if w.OutputTokens > 1 && (r.DecodeStart < r.FirstToken || r.DecodeStart > r.Completion) {
					t.Fatalf("trial %d %s: request %d decode start out of range", trial, sys.name, r.ID)
				}
			}
		}
	}
}

// TestPropertyLifecyclePartitionUnderFaults checks exactly-once
// accounting when requests are aborted, rejected, and crash-recovered
// mid-flight: every submitted request ends in exactly one of the four
// lifecycle states, no ID appears in more than one record list, and a
// recovered (re-prefilled) request is never counted as both aborted and
// completed — the invariant the fleet failover path builds on.
func TestPropertyLifecyclePartitionUnderFaults(t *testing.T) {
	systems := []struct {
		name string
		run  runFn
	}{
		{"vLLM", RunVLLMFrom}, {"DistServe", RunDistServeFrom}, {"WindServe", RunWindServeFrom},
	}
	plans := []string{
		"crash:d0@20+10; cancel@25x0.2",
		"crash:p0@15+10; slow:d0@10x3+30",
		"degrade@10x0.2+30; cancel@12x0.3; crash:d0@35+5",
	}
	for trial, spec := range plans {
		cfg := cfg13B(t)
		cfg.Horizon = sim.Seconds(600)
		cfg.Shed = ShedPolicy{MaxQueueDepth: 64, TTFTDeadline: sim.Seconds(30)}
		cfg.Faults = mustPlan(t, int64(trial)+1, spec)
		reqs := trace13B(4, 200, int64(trial)+100)
		for _, sys := range systems {
			res, err := sys.run(cfg, workload.NewSliceSource(reqs))
			if err != nil {
				t.Fatalf("plan %d %s: %v", trial, sys.name, err)
			}
			completed := len(res.Records)
			if got := completed + res.Aborted + res.Rejected + res.Unfinished; got != len(reqs) {
				t.Fatalf("plan %d %s: partition broken: %d completed + %d aborted + %d rejected + %d unfinished != %d",
					trial, sys.name, completed, res.Aborted, res.Rejected, res.Unfinished, len(reqs))
			}
			if len(res.AbortedRecords) != res.Aborted || len(res.RejectedRecords) != res.Rejected {
				t.Fatalf("plan %d %s: record lists disagree with counters", trial, sys.name)
			}
			state := map[uint64]string{}
			note := func(id uint64, s string) {
				if prev, ok := state[id]; ok {
					t.Fatalf("plan %d %s: request %d counted as both %s and %s",
						trial, sys.name, id, prev, s)
				}
				state[id] = s
			}
			for _, r := range res.Records {
				note(r.ID, "completed")
			}
			for _, r := range res.AbortedRecords {
				note(r.ID, "aborted")
			}
			for _, r := range res.RejectedRecords {
				note(r.ID, "rejected")
			}
			if res.Recovered > completed+res.Aborted {
				t.Fatalf("plan %d %s: recovered %d exceeds finalized in-flight requests",
					trial, sys.name, res.Recovered)
			}
		}
	}
}

// TestSameTraceAcrossSystems checks that system comparison is apples to
// apples: all systems consume the identical arrival times.
func TestSameTraceAcrossSystems(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(3, 100, 5)
	for name, run := range allSystems() {
		res, err := run(cfg, workload.NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Records {
			if r.Arrival != reqs[r.ID-1].Arrival {
				t.Fatalf("%s: request %d arrival drifted", name, r.ID)
			}
		}
	}
}

// TestPlacementMapsDrain requires pd's placement maps to hold in-flight
// requests only: after a drained run both are empty, including the
// entries of requests that completed on a prefill instance (one-token
// outputs, streams migrated there, and WindServe's async-transfer
// decodeAt). Completion at any instance deletes both entries.
func TestPlacementMapsDrain(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(4.5, 3000, 7)
	check := func(system string, res *Result, d *pd) {
		t.Helper()
		if res.Unfinished != 0 {
			t.Fatalf("%s: %d unfinished; the run must drain", system, res.Unfinished)
		}
		if len(d.prefillAt) != 0 || len(d.decodeAt) != 0 {
			t.Errorf("%s: %d prefillAt and %d decodeAt entries left after drain",
				system, len(d.prefillAt), len(d.decodeAt))
		}
	}

	w, err := newWindServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.run(workload.NewSliceSource(reqs))
	if res.Rescheduled == 0 {
		t.Fatal("WindServe run migrated nothing; raise the rate to cover migrated streams")
	}
	check("WindServe", res, w.d)

	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newPD(r, r.cfg, pdHooks{})
	if err != nil {
		t.Fatal(err)
	}
	r.queueDepth = d.queueDepth
	r.onAbort = d.abort
	r.scheduleStream(workload.NewSliceSource(reqs), d.prefillRR)
	check("DistServe", r.run("DistServe"), d)
}
