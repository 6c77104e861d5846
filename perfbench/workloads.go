package main

import (
	"fmt"
	"time"

	"windserve/internal/fleet"
	"windserve/internal/kvcache"
	"windserve/internal/metrics"
	"windserve/internal/model"
	"windserve/internal/sched"
	"windserve/internal/serve"
	"windserve/internal/shard"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/workload"
)

// spec is one benchmark workload: a seeded request stream and the system
// that serves it.
type spec struct {
	name string
	// requests is the size of one lane's stream and lanes the number of
	// streams a run serves; tiny is the size the benchmark's own tests
	// use.
	requests, lanes, tiny int
	// pd marks the single-testbed workloads, where a run that leaves
	// nothing unfinished must also leave no KV block allocated.
	pd  bool
	run func(src *pullSource, seed int64, p probe) (outcome, error)
}

// probe carries the optional observers of a counting run. The timed runs
// leave both nil.
type probe struct {
	tracer    *trace.Tracer
	decisions *sched.DecisionLog
}

// outcome is one run's result, reduced to what the checks and metrics
// read. Every field but shard is virtual-time arithmetic, so it repeats
// exactly for a seed.
type outcome struct {
	sent, completed, aborted, rejected, unfinished int
	liveKV                                         int
	elapsed                                        sim.Time
	sum                                            metrics.Summary
	kv                                             kvcache.Stats

	dispatched, rescheduled, backups, asyncXfers int
	transferGB, migrationGB                      float64
	failovers                                    int
	shard                                        shard.Stats
}

var specs = []spec{
	{name: "pd-steady", requests: 40_000, lanes: 4, tiny: 300, pd: true, run: runPD(3.0, true)},
	{name: "pd-saturated", requests: 50_000, lanes: 8, tiny: 300, pd: true, run: runPD(4.5, false)},
	{name: "fleet-chat-prefix", requests: 5_000, lanes: 4, tiny: 200, run: runFleet},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// runPD serves Poisson ShareGPT arrivals at perGPU req/s/GPU on one
// OPT-13B WindServe testbed, with the streaming or the exact recorder.
func runPD(perGPU float64, stream bool) func(*pullSource, int64, probe) (outcome, error) {
	return func(src *pullSource, seed int64, p probe) (outcome, error) {
		cfg, err := serve.DefaultConfig(model.OPT13B)
		if err != nil {
			return outcome{}, err
		}
		cfg.Stream.Enabled = stream
		cfg.Tracer, cfg.Decisions = p.tracer, p.decisions
		g := workload.NewGenerator(workload.ShareGPT(),
			workload.PoissonArrivals{Rate: perGPU * float64(cfg.TotalGPUs())}, seed)
		src.src = g.Source(src.n)
		res, err := serve.RunWindServeFrom(cfg, src)
		if err != nil {
			return outcome{}, err
		}
		kv := res.PrefillKV
		kv.Accumulate(res.DecodeKV)
		return outcome{
			sent: src.sent, completed: res.Summary.Requests,
			aborted: res.Aborted, rejected: res.Rejected, unfinished: res.Unfinished,
			liveKV: res.LiveKVBlocks, elapsed: res.Elapsed, sum: res.Summary, kv: kv,
			dispatched: res.Dispatched, rescheduled: res.Rescheduled, backups: res.Backups,
			asyncXfers: res.AsyncXfers, transferGB: res.TransferGB, migrationGB: res.MigrationGB,
		}, nil
	}
}

// fleetReplicas and fleetShards size the fleet workload. Two shards run
// the shard barrier on two goroutines whatever the host's core count.
const (
	fleetReplicas = 8
	fleetShards   = 2
)

// runFleet serves the multi-turn chat scenario at 1 req/s/GPU on an
// 8-replica LLaMA2-13B fleet with a tiered prefix cache and
// prefix-affinity routing. Failover, admission, deadline and brown-out
// settings are those of the scenario exhibit.
func runFleet(src *pullSource, seed int64, p probe) (outcome, error) {
	rcfg, err := serve.DefaultConfig(model.LLaMA213B)
	if err != nil {
		return outcome{}, err
	}
	rcfg.Stream.Enabled = true
	rcfg.Prefix = serve.PrefixPolicy{Enabled: true, Tiered: true}
	var st shard.Stats
	cfg := fleet.Config{
		Replica:         rcfg,
		NumReplicas:     fleetReplicas,
		Shards:          fleetShards,
		Policy:          "prefix-affinity",
		FailoverTimeout: sim.Seconds(30),
		MaxQueueDepth:   64 * fleetReplicas,
		TTFTDeadline:    sim.Seconds(120),
		BrownoutDepth:   48,
		ShardStats:      &st,
		Decisions:       p.decisions,
	}
	sc, err := workload.ScenarioByName("chat")
	if err != nil {
		return outcome{}, err
	}
	src.src = sc.Source(src.n, 1.0*float64(rcfg.TotalGPUs()*fleetReplicas), seed)
	res, err := fleet.RunFrom(cfg, src)
	if err != nil {
		return outcome{}, err
	}
	kv := res.PrefillKV
	kv.Accumulate(res.DecodeKV)
	return outcome{
		sent: src.sent, completed: res.Completed,
		aborted: res.Aborted, rejected: res.Rejected, unfinished: res.Unfinished,
		liveKV: res.LiveKVBlocks, elapsed: res.Elapsed, sum: res.Summary, kv: kv,
		transferGB: res.TransferGB, failovers: res.FailedOver, shard: st,
	}, nil
}

// pullSource wraps a workload stream: it counts what the system pulled,
// stamps the first pull (the end of set-up), and, when timed, adds up
// the host time spent inside the stream.
type pullSource struct {
	src   workload.Source
	n     int
	timed bool

	first time.Time
	sent  int
	pull  time.Duration
}

func (s *pullSource) Next() (workload.Request, bool) {
	if s.first.IsZero() {
		s.first = time.Now()
	}
	if !s.timed {
		r, ok := s.src.Next()
		if ok {
			s.sent++
		}
		return r, ok
	}
	t0 := time.Now()
	r, ok := s.src.Next()
	s.pull += time.Since(t0)
	if ok {
		s.sent++
	}
	return r, ok
}
