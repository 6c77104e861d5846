package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"windserve/internal/fault"
	"windserve/internal/model"
	"windserve/internal/sched"
	"windserve/internal/serve"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

func testConfig(t *testing.T, replicas int) Config {
	t.Helper()
	rcfg, err := serve.DefaultConfig(model.OPT13B)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replica:         rcfg,
		NumReplicas:     replicas,
		FailoverTimeout: sim.Seconds(20),
		Horizon:         sim.Seconds(600),
	}
}

func trace(n int, rate float64, seed int64) []workload.Request {
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate}, seed)
	return g.Generate(n)
}

// checkPartition asserts the lifecycle partition: every request ends in
// exactly one of completed/aborted/rejected/unfinished.
func checkPartition(t *testing.T, res *Result) {
	t.Helper()
	if got := res.Completed + res.Aborted + res.Rejected + res.Unfinished; got != res.Requests {
		t.Fatalf("lifecycle partition broken: %d completed + %d aborted + %d rejected + %d unfinished != %d requests",
			res.Completed, res.Aborted, res.Rejected, res.Unfinished, res.Requests)
	}
}

func TestFleetCleanRun(t *testing.T) {
	cfg := testConfig(t, 4)
	res, err := RunFrom(cfg, workload.NewSliceSource(trace(200, 8, 1)))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.Unfinished != 0 || res.Aborted != 0 || res.Rejected != 0 {
		t.Fatalf("clean run lost requests: %v", res)
	}
	if res.Completed != 200 {
		t.Fatalf("completed %d of 200", res.Completed)
	}
	if res.LiveKVBlocks != 0 {
		t.Fatalf("KV leak: %d blocks live after drain", res.LiveKVBlocks)
	}
	if res.Recovered != 0 || res.FailedOver != 0 {
		t.Fatalf("clean run recorded failovers: %v", res)
	}
}

// TestFleetCrashFailover is the exactly-once invariant under chaos: a
// replica crash orphans its requests, the router fails them over, and
// every one still ends in exactly one lifecycle state. A double-complete
// or complete-after-abort would panic inside the recorder.
func TestFleetCrashFailover(t *testing.T) {
	for _, pol := range []string{"round-robin", "least-loaded", "weighted"} {
		cfg := testConfig(t, 3)
		cfg.Policy = pol
		cfg.Faults = mustPlan(t, "rcrash:r0@10+30")
		cfg.Decisions = sched.NewDecisionLog()
		res, err := RunFrom(cfg, workload.NewSliceSource(trace(300, 10, 2)))
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, res)
		if res.Unfinished != 0 {
			t.Fatalf("%s: %d unfinished after crash+restore", pol, res.Unfinished)
		}
		if res.Recovered == 0 || res.FailedOver == 0 {
			t.Fatalf("%s: crash at t=10 orphaned nothing (recovered %d, failovers %d)",
				pol, res.Recovered, res.FailedOver)
		}
		if res.Recovered > res.Completed {
			t.Fatalf("%s: recovered %d > completed %d", pol, res.Recovered, res.Completed)
		}
		if res.LiveKVBlocks != 0 {
			t.Fatalf("%s: KV leak after crash recovery: %d blocks", pol, res.LiveKVBlocks)
		}
		if res.WastedTokens == 0 {
			t.Fatalf("%s: crash evicted in-flight requests but no wasted work accounted", pol)
		}
		reasons := map[string]int{}
		for _, rr := range cfg.Decisions.Routes {
			reasons[rr.Reason]++
		}
		if reasons["failover-crash"] == 0 {
			t.Fatalf("%s: no failover-crash decisions logged: %v", pol, reasons)
		}
		if reasons["replica-crash"] != 1 || reasons["replica-restore"] != 1 {
			t.Fatalf("%s: crash/restore decisions missing: %v", pol, reasons)
		}
	}
}

// TestFleetPartitionAndSlow exercises the two non-crash health faults:
// a partitioned replica's first-token-less requests move immediately, and
// a slowed replica triggers timeout failovers.
func TestFleetPartitionAndSlow(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.Policy = "weighted"
	cfg.FailoverTimeout = sim.Seconds(5)
	cfg.Faults = mustPlan(t, "rpart:r1@8+20; rslow:r2@30x50+30")
	cfg.Decisions = sched.NewDecisionLog()
	res, err := RunFrom(cfg, workload.NewSliceSource(trace(300, 10, 3)))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	reasons := map[string]int{}
	for _, rr := range cfg.Decisions.Routes {
		reasons[rr.Reason]++
	}
	if reasons["partition-start"] == 0 || reasons["partition-heal"] == 0 {
		t.Fatalf("partition events not logged: %v", reasons)
	}
	if reasons["failover-partition"]+reasons["failover-timeout"] == 0 {
		t.Fatalf("no failovers under partition+slow chaos: %v", reasons)
	}
}

// TestFleetShedding drives the fleet past its admission limit and checks
// the router rejects (never queues unboundedly) and aborts on deadline.
func TestFleetShedding(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.MaxQueueDepth = 8
	cfg.TTFTDeadline = sim.Seconds(5)
	res, err := RunFrom(cfg, workload.NewSliceSource(trace(400, 200, 4)))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.Rejected == 0 {
		t.Fatal("overload run rejected nothing")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished despite shedding", res.Unfinished)
	}
}

// TestFleetDeterminism runs the same seeded chaos twice and requires
// byte-identical results and decision logs — the property the CI chaos
// gate enforces end to end.
func TestFleetDeterminism(t *testing.T) {
	run := func() (string, []byte) {
		cfg := testConfig(t, 4)
		cfg.Policy = "least-loaded"
		cfg.BrownoutDepth = 16
		cfg.Faults = mustPlan(t, "rcrash:r1@10+20; rpart:r3@25+10; rslow:r0@40x8+20; cancel@30x0.1")
		cfg.Faults.Seed = 7
		cfg.Decisions = sched.NewDecisionLog()
		res, err := RunFrom(cfg, workload.NewSliceSource(trace(400, 12, 5)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Decisions.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res), buf.Bytes()
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 {
		t.Fatalf("results differ across identical runs:\n%s\n%s", r1, r2)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("decision logs differ across identical runs")
	}
}

// TestFleetValidation covers the router-level config rejections.
func TestFleetValidation(t *testing.T) {
	base := testConfig(t, 2)
	for name, mutate := range map[string]func(*Config){
		"no replicas":     func(c *Config) { c.NumReplicas = 0 },
		"unknown policy":  func(c *Config) { c.Policy = "random" },
		"instance fault":  func(c *Config) { c.Faults = mustPlan(t, "crash:d0@5+5") },
		"replica too big": func(c *Config) { c.Faults = mustPlan(t, "rcrash:r2@5+5") },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := RunFrom(cfg, workload.NewSliceSource(trace(5, 5, 1))); err == nil {
			t.Errorf("%s: RunFrom accepted invalid config", name)
		}
	}
}

// TestFleetValidationRejectsNonFinite requires NaN and ±Inf in every
// float knob, and a negative BrownoutDepth or Horizon, to fail
// validation with an error naming the field: a NaN FailoverTimeout
// would otherwise panic the simulator mid-run, and a negative Horizon
// would silently become the default.
func TestFleetValidationRejectsNonFinite(t *testing.T) {
	cases := []struct {
		field string
		set   func(*Config, float64)
	}{
		{"FailoverTimeout", func(c *Config, v float64) { c.FailoverTimeout = sim.Duration(v) }},
		{"TTFTDeadline", func(c *Config, v float64) { c.TTFTDeadline = sim.Duration(v) }},
		{"Horizon", func(c *Config, v float64) { c.Horizon = sim.Duration(v) }},
	}
	for _, tc := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := testConfig(t, 2)
			tc.set(&cfg, v)
			if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: validate() = %v, want an error naming the field", tc.field, v, err)
			}
		}
	}
	for field, set := range map[string]func(*Config){
		"BrownoutDepth": func(c *Config) { c.BrownoutDepth = -1 },
		"Horizon":       func(c *Config) { c.Horizon = -sim.Seconds(1) },
	} {
		cfg := testConfig(t, 2)
		set(&cfg)
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: validate() = %v, want an error naming the field", field, err)
		}
	}
}

// TestOverloadHysteresisMatchesHistoricalBrownout pins the brown-out
// latch to the fleet's historical inline rule
//
//	if !in && mean >= d  -> enter
//	if in  && mean <= d/2 -> exit
//
// over the full small-integer space (including the d/2 integer-division
// edge at odd depths).
func TestOverloadHysteresisMatchesHistoricalBrownout(t *testing.T) {
	for d := 0; d <= 33; d++ {
		for total := 0; total <= 200; total++ {
			for healthy := 0; healthy <= 9; healthy++ {
				mean := meanQueueDepth(total, healthy)
				for _, in := range []bool{false, true} {
					want := in
					if d > 0 {
						if !in && mean >= d {
							want = true
						} else if in && mean <= d/2 {
							want = false
						}
					} else {
						want = false
					}
					if got := overloadHysteresis(in, mean, d); got != want {
						t.Fatalf("overloadHysteresis(%v, mean=%d, d=%d) = %v, want %v (total=%d healthy=%d)",
							in, mean, d, got, want, total, healthy)
					}
				}
			}
		}
	}
}

func TestMeanQueueDepth(t *testing.T) {
	if got := meanQueueDepth(10, 0); got != 0 {
		t.Fatalf("no healthy replicas: %d", got)
	}
	if got := meanQueueDepth(10, 3); got != 3 {
		t.Fatalf("integer division: %d", got)
	}
}

// FuzzFleetConfig writes fuzz input into every numeric field
// fleet.Config owns — replica and shard counts, failover timeout,
// admission depth, deadline, brown-out depth and horizon — then
// validates. Validation must never panic, and a config it accepts must
// hold only finite, non-negative numbers after fillDefaults, with at
// least one replica and 1 <= Shards <= NumReplicas. Accepted configs are
// not run: a fuzzed replica count would allocate without bound.
func FuzzFleetConfig(f *testing.F) {
	f.Add(4, 1, 20.0, 0, 0.0, 0, 600.0)
	f.Fuzz(func(t *testing.T, replicas, shards int, failover float64, queue int, deadline float64, brownout int, horizon float64) {
		cfg := testConfig(t, replicas)
		cfg.Shards = shards
		cfg.FailoverTimeout = sim.Duration(failover)
		cfg.MaxQueueDepth = queue
		cfg.TTFTDeadline = sim.Duration(deadline)
		cfg.BrownoutDepth = brownout
		cfg.Horizon = sim.Duration(horizon)
		if cfg.validate() != nil {
			return
		}
		cfg.fillDefaults()
		for _, v := range []float64{
			float64(cfg.NumReplicas), float64(cfg.Shards), float64(cfg.FailoverTimeout),
			float64(cfg.MaxQueueDepth), float64(cfg.TTFTDeadline), float64(cfg.BrownoutDepth),
			float64(cfg.Horizon),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("validate accepted a config with numeric field %v after fillDefaults: %+v", v, cfg)
			}
		}
		if cfg.NumReplicas < 1 || cfg.Shards < 1 || cfg.Shards > cfg.NumReplicas {
			t.Fatalf("validate accepted %d replicas on %d shards", cfg.NumReplicas, cfg.Shards)
		}
	})
}

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
