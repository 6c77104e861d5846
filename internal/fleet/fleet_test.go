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
		"prefix set":      func(c *Config) { c.Replica.NamePrefix = "x/" },
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
// float knob, and a negative BrownoutDepth, to fail validation with an
// error naming the field: a NaN FailoverTimeout would otherwise panic
// the simulator mid-run.
func TestFleetValidationRejectsNonFinite(t *testing.T) {
	cases := []struct {
		field string
		set   func(*Config, float64)
	}{
		{"FailoverTimeout", func(c *Config, v float64) { c.FailoverTimeout = sim.Duration(v) }},
		{"TTFTDeadline", func(c *Config, v float64) { c.TTFTDeadline = sim.Duration(v) }},
		{"NetDelay", func(c *Config, v float64) { c.NetDelay = sim.Duration(v) }},
		{"LoadReportEvery", func(c *Config, v float64) { c.LoadReportEvery = sim.Duration(v) }},
		{"BrownoutSlack", func(c *Config, v float64) { c.BrownoutSlack = v }},
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
	cfg := testConfig(t, 2)
	cfg.BrownoutDepth = -1
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "BrownoutDepth") {
		t.Errorf("BrownoutDepth -1: validate() = %v, want an error naming the field", err)
	}
}

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
