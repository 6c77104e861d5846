package serve

import (
	"fmt"

	"windserve/internal/cluster"
	"windserve/internal/engine"
	"windserve/internal/kvcache"
	"windserve/internal/workload"
	"windserve/internal/xfer"
)

// RunVLLMFrom simulates the co-located baseline: continuous batching with
// chunked prefill enabled (the configuration the paper compares against,
// vLLM v0.4.2 with chunked prefill). Prefill and decode jobs share hybrid
// batches, so each decode iteration pays the prefill chunks' latency —
// the interference PD systems remove.
//
// To occupy the same GPU budget as the disaggregated pair (the paper's
// linear scaling rule compares per-GPU rates), vLLM deploys
// (prefill+decode GPUs) / PrefillPlace.GPUs() identical replicas with
// round-robin request routing. Arrivals are pulled from src one at a
// time.
func RunVLLMFrom(cfg Config, src workload.Source) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	cfg = r.cfg

	totalGPUs := cfg.TotalGPUs()
	replicas := totalGPUs / cfg.PrefillPlace.GPUs()
	if replicas < 1 {
		replicas = 1
	}
	specs := make([]cluster.InstanceSpec, replicas)
	for i := range specs {
		specs[i] = cluster.InstanceSpec{Role: cluster.RoleColocated, Place: cfg.PrefillPlace}
	}
	asg, err := cluster.Plan(cfg.Topo, cfg.Model, cfg.Params, reserveFrac, specs...)
	if err != nil {
		return nil, fmt.Errorf("serve: planning vLLM: %w", err)
	}

	at := make(map[uint64]int) // request → replica, for abort scrubbing
	instances := make([]*engine.Instance, replicas)
	kvs := make([]*kvcache.Manager, replicas)
	for i, a := range asg {
		kv, err := kvcache.New(a.KVTokens, cpuSwapTokens, kvcache.DefaultBlockSize)
		if err != nil {
			return nil, err
		}
		if cfg.Prefix.Enabled {
			kv.EnablePrefixCache(cfg.Prefix.Tiered)
		}
		kvs[i] = kv
		host := xfer.NewLink(r.s, fmt.Sprintf("host-%d", i), cfg.Topo.HostPath(), xfer.DefaultEfficiency)
		hooks := r.recorderHooks() // nil OnPrefillDone: finished prompts join the local batch
		base := hooks.OnComplete
		// Scrub the routing entry on completion, not just on abort —
		// otherwise the map grows with every request ever served.
		hooks.OnComplete = func(q *engine.Req) {
			base(q)
			delete(at, q.W.ID)
		}
		ins, err := engine.NewInstance(r.s, engine.Config{
			Name: fmt.Sprintf("vllm-%d", i), CM: a.CM, KV: kv, HostLink: host, Tracer: cfg.Tracer,
			AllowPrefill: true, ChunkSize: cfg.ChunkSize, AlwaysChunk: true,
			MaxPrefillTokens: cfg.MaxPrefillTokens,
		}, hooks)
		if err != nil {
			return nil, err
		}
		instances[i] = ins
	}

	next := 0
	route := func(q *engine.Req) {
		// Round-robin over live replicas; with all replicas down, park on
		// the nominal one until a restore drains its queue.
		i := -1
		for k := 0; k < replicas; k++ {
			c := (next + k) % replicas
			if !instances[c].Down() {
				i = c
				break
			}
		}
		if i < 0 {
			i = next % replicas
		}
		next = i + 1
		at[q.W.ID] = i
		cfg.Decisions.AddRoute(r.s.Now(), q.W.ID, instances[i].Name(), "round-robin")
		instances[i].EnqueuePrefill(q)
	}
	r.queueDepth = func() int {
		n := 0
		for _, ins := range instances {
			n += ins.NumQueued()
		}
		return n
	}
	r.onAbort = func(q *engine.Req) {
		if i, ok := at[q.W.ID]; ok {
			instances[i].Abort(q)
			delete(at, q.W.ID)
		}
	}
	if err := installVLLMFaults(r, instances, route); err != nil {
		return nil, err
	}
	r.scheduleStream(src, route)
	res := r.run("vLLM")

	// Aggregate replica telemetry.
	var stats kvcache.Stats
	var cu, bu, stall float64
	for i, ins := range instances {
		stats.Accumulate(kvs[i].Stats())
		c, b := utilization(ins, res.Elapsed)
		cu += c
		bu += b
		stall += ins.SwapStall.Seconds()
		res.LiveKVBlocks += kvs[i].UsedBlocks()
	}
	res.DecodeKV = stats
	res.PrefillKV = stats
	res.PrefillComputeUtil, res.PrefillBWUtil = cu/float64(replicas), bu/float64(replicas)
	res.DecodeComputeUtil, res.DecodeBWUtil = res.PrefillComputeUtil, res.PrefillBWUtil
	res.SwapStallSec = stall
	return res, nil
}
