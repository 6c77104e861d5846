package fleet

import (
	"testing"

	"windserve/internal/fault"
	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// failureWeight maps a replica-granularity chaos event to the weight the
// router would feed observeFailure with: crashes weigh 4, a slow replica
// surfaces as failover timeouts weighing 1 each.
func failureWeight(k fault.Kind) float64 {
	if k == fault.ReplicaCrash {
		return 4
	}
	return 1
}

// TestWeightedDecayProperties is the satellite property test: driving the
// weighted policy with observations derived from an rcrash/rslow chaos
// plan, each replica's penalty must (a) only ever decrease between its
// own observations, (b) be completely unaffected by interleaved
// observations on other replicas, and (c) saturate at penaltyCap under
// sustained chaos instead of accumulating without bound.
func TestWeightedDecayProperties(t *testing.T) {
	plan, err := fault.Parse(
		"rcrash:r0@5+10; rslow:r1@7x8+20; rcrash:r2@9+5; rslow:r0@12x4+10; " +
			"rcrash:r1@14+6; rslow:r2@15x16+30; rcrash:r0@21+4; rslow:r1@23x2+5")
	if err != nil {
		t.Fatal(err)
	}
	const replicas = 3
	p := newWeighted()
	p.ensure(replicas)

	at := func(s float64) sim.Time { return sim.Time(0).Add(sim.Seconds(s)) }
	for _, e := range plan.Events {
		now := at(e.At.Sub(sim.Time(0)).Seconds())
		// (b) isolation: an observation on e.Instance must not move any
		// other replica's decayed penalty.
		var before [replicas]float64
		for i := 0; i < replicas; i++ {
			before[i] = p.decayedAt(i, now)
		}
		p.observeAt(e.Instance, now, failureWeight(e.Kind))
		for i := 0; i < replicas; i++ {
			if i == e.Instance {
				if p.decayedAt(i, now) <= before[i] {
					t.Fatalf("event %v: observed replica %d penalty did not rise (%v -> %v)",
						e, i, before[i], p.decayedAt(i, now))
				}
				continue
			}
			if got := p.decayedAt(i, now); got != before[i] {
				t.Fatalf("event %v: replica %d penalty moved %v -> %v without an observation",
					e, i, before[i], got)
			}
		}
		// Rebase correctness: the stored value is exact as of now.
		if got := p.decayedAt(e.Instance, now); got != p.penalty[e.Instance] {
			t.Fatalf("event %v: decayedAt(now)=%v != stored %v", e, got, p.penalty[e.Instance])
		}
		// (a) monotone decay after the observation.
		prev := p.decayedAt(e.Instance, now)
		for _, dt := range []float64{0.5, 1, 5, 30, 120} {
			cur := p.decayedAt(e.Instance, now.Add(sim.Seconds(dt)))
			if cur > prev {
				t.Fatalf("event %v: penalty rose with time: %v -> %v at +%gs", e, prev, cur, dt)
			}
			if cur < 0 {
				t.Fatalf("event %v: negative penalty %v", e, cur)
			}
			prev = cur
		}
	}

	// (c) saturation: a replica hammered by back-to-back crashes holds
	// at the cap; no overflow, and recovery time stays bounded.
	now := at(100)
	for i := 0; i < 10_000; i++ {
		p.observeAt(0, now, 4)
	}
	if p.penalty[0] != penaltyCap {
		t.Fatalf("sustained chaos penalty = %v, want cap %v", p.penalty[0], penaltyCap)
	}
	// From the cap, the penalty decays below one queue-depth unit within
	// ~3 minutes of virtual time — the replica is routable again.
	if v := p.decayedAt(0, now.Add(sim.Seconds(200))); v >= 1 {
		t.Fatalf("penalty %v still >= 1 after 200s: saturated replica cannot recover", v)
	}
}

// TestPrefixAffinityRouting: same session → same healthy replica; no
// identity → load balancing; an unhealthy home reroutes deterministically.
func TestPrefixAffinityRouting(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Policy = "prefix-affinity"

	// Multi-turn sessions: 60 requests over 12 sessions.
	reqs := trace(60, 30, 9)
	for i := range reqs {
		sid := uint64(i%12 + 1)
		reqs[i].SessionID = sid
		reqs[i].PrefixGroup = sid
		reqs[i].PrefixTokens = reqs[i].PromptTokens / 2
	}
	cfg.Decisions = sched.NewDecisionLog()
	res, err := RunFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.Completed != 60 {
		t.Fatalf("completed %d of 60", res.Completed)
	}
	// Every session's routes must target a single replica.
	target := map[uint64]string{}
	for _, rr := range cfg.Decisions.Routes {
		if rr.Reason != "prefix-affinity" { // skip replica-internal routes
			continue
		}
		sid := uint64((rr.ReqID-1)%12 + 1)
		if prev, ok := target[sid]; ok && prev != rr.Target {
			t.Fatalf("session %d split across %s and %s", sid, prev, rr.Target)
		} else if !ok {
			target[sid] = rr.Target
		}
	}
	// And the hash must actually spread sessions over replicas.
	distinct := map[string]bool{}
	for _, tg := range target {
		distinct[tg] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all sessions on one replica: %v", target)
	}
}

// TestPrefixAffinityFailover: with the home replica crashed, sessions
// still complete — affinity degrades to balancing, never to parking.
func TestPrefixAffinityFailover(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.Policy = "prefix-affinity"
	cfg.Faults = mustPlan(t, "rcrash:r1@5+30")
	reqs := trace(120, 8, 11)
	for i := range reqs {
		reqs[i].SessionID = uint64(i%10 + 1)
	}
	res, err := RunFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished under affinity failover", res.Unfinished)
	}
}
