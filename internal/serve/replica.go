package serve

import (
	"fmt"
	"sort"
	"strings"

	"windserve/internal/engine"
	"windserve/internal/perf"
	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// Replica is one fleet member: a complete DistServe-style prefill/decode
// group living on a simulator and recorder shared with its siblings. The
// fleet router owns the request lifecycle — arrivals, admission, deadline
// aborts, failover — and a Replica only executes what is submitted to it.
// Intra-replica routing stays what DistServe does (round-robin prefill,
// round-robin transfer), and every decision still flows through the
// shared DecisionLog under the replica's name prefix.
type Replica struct {
	name string
	r    *runner
	d    *pd
	down bool
}

// NewReplica plans one replica on the given simulator — the router's own,
// or a shard simulator the replica shares only with same-shard siblings —
// writing lifecycle events through led (a *metrics.Recorder, or a proxy
// forwarding each timestamped call to the router's shard).
// prefix (e.g. "r3/") keeps instance and link names unique across the
// fleet, and the replica is named after it. elastic wires the cluster
// for Flip. cfg.Shed and cfg.Faults must be zero — the router owns
// shedding, and fault plans compile at the fleet level.
func NewReplica(s *sim.Simulator, led Ledger, cfg Config, prefix string, elastic bool) (*Replica, error) {
	if cfg.Faults != nil {
		return nil, fmt.Errorf("serve: replica %q: fault plans attach to the fleet, not a replica", prefix)
	}
	if cfg.Shed != (ShedPolicy{}) {
		return nil, fmt.Errorf("serve: replica %q: shedding is the router's job; leave Shed zero", prefix)
	}
	r, err := newRunnerOn(s, led, cfg)
	if err != nil {
		return nil, err
	}
	d, err := newPD(r, r.cfg, pdHooks{prefix: prefix, elastic: elastic})
	if err != nil {
		return nil, fmt.Errorf("serve: planning replica %q: %w", prefix, err)
	}
	r.queueDepth = d.queueDepth
	r.onAbort = d.abort
	return &Replica{name: strings.TrimSuffix(prefix, "/"), r: r, d: d}, nil
}

func (rp *Replica) Name() string { return rp.name }

// QueueDepth is the replica's load signal: requests waiting for prefill
// anywhere plus prefilled requests stuck waiting for decode KV.
func (rp *Replica) QueueDepth() int { return rp.d.queueDepth() }

// InFlight is the number of requests currently owned by this replica.
func (rp *Replica) InFlight() int { return len(rp.r.live) }

// Submit hands a request to the replica. The router has already recorded
// the arrival; a failover submits a fresh request object under the same
// ID, which the first-call-wins recorder folds into the original record.
func (rp *Replica) Submit(w workload.Request) {
	q := engine.NewReq(w)
	rp.r.live[w.ID] = q
	rp.d.prefillRR(q)
}

// Abort terminates a request owned by this replica: the record finalizes
// as aborted and the engines scrub it. No-op if the request already left.
func (rp *Replica) Abort(id uint64) { rp.r.abortReq(id) }

// Evict removes a request from this replica WITHOUT finalizing its
// record — the failover path. The returned request carries the work lost
// with it (PrefillDone + Generated tokens); nil if the request is not
// live here. The router resubmits the same workload request elsewhere.
func (rp *Replica) Evict(id uint64) *engine.Req {
	q, ok := rp.r.live[id]
	if !ok {
		return nil
	}
	delete(rp.r.live, id)
	q.Phase = engine.PhaseAborted
	rp.d.abort(q)
	return q
}

// Crash takes the whole replica down: every instance loses its KV and
// in-flight passes, and every request still owned here is orphaned. The
// orphans come back in ID order (deterministic), already scrubbed and
// phase-aborted, with their lost work readable off PrefillDone/Generated;
// their records stay open so the router can fail them over.
func (rp *Replica) Crash() []*engine.Req {
	rp.down = true
	for _, ins := range rp.d.ins {
		if !ins.Down() {
			ins.Crash()
		}
	}
	ids := make([]uint64, 0, len(rp.r.live))
	for id := range rp.r.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	orphans := make([]*engine.Req, 0, len(ids))
	for _, id := range ids {
		q := rp.r.live[id]
		delete(rp.r.live, id)
		q.Phase = engine.PhaseAborted
		orphans = append(orphans, q)
	}
	rp.d.transferPending = rp.d.transferPending[:0]
	clear(rp.d.prefillAt)
	clear(rp.d.decodeAt)
	// In-flight migration callbacks check the registry by pointer and
	// no-op once their entries are gone.
	clear(rp.d.migrating)
	return orphans
}

// Restore brings a crashed replica back with empty caches.
func (rp *Replica) Restore() {
	rp.down = false
	for _, ins := range rp.d.ins {
		ins.Restore()
	}
}

// SetSlowdown scales every instance's compute time (1 restores nominal) —
// the whole-replica slow-node fault.
func (rp *Replica) SetSlowdown(factor float64) {
	for _, ins := range rp.d.ins {
		ins.SetSlowdown(factor)
	}
}

// DegradeLinks scales the replica's cross-instance bandwidth.
func (rp *Replica) DegradeLinks(frac float64) { rp.d.degradeLinks(frac) }

// LoadSignals is the replica's elastic pressure snapshot: prompt-token
// backlog across acting prefills, stream count and summed context across
// acting decodes, and the acting role counts. With Elastic off the
// acting counts are simply the home counts.
func (rp *Replica) LoadSignals() (qTokens, running, sumCtx, actP, actD int) {
	return rp.d.loadSignals()
}

// Flip converts one of the replica's instances to the other role —
// toDecode true turns an acting prefill into a decode, false the
// reverse — draining its in-flight work onto the remaining instances.
// Returns a zero result (OK false) when the replica is down, it is not
// wired elastic, or the flip would empty a role.
func (rp *Replica) Flip(toDecode bool) FlipResult {
	if rp.down {
		return FlipResult{}
	}
	return rp.d.flip(toDecode)
}

// Shape exposes the planned prefill and decode instance cost models
// (first instance of each role — replicas deploy identical shapes). The
// fleet's role controller profiles these to predict TTFT and TPOT from
// the replica's reported load signals.
func (rp *Replica) Shape() (prefill, decode *perf.CostModel) {
	return rp.d.prefills[0].CM(), rp.d.decodes[0].CM()
}

// Aborted is how many requests this replica terminated via Abort.
func (rp *Replica) Aborted() int { return rp.r.aborted }

// Decisions returns the replica's private decision log (nil when the
// fleet isn't collecting decisions). The fleet merges per-actor logs
// into the caller's log in canonical order at the end of a run.
func (rp *Replica) Decisions() *sched.DecisionLog { return rp.r.cfg.Decisions }

// Result reads the replica's end-of-run accounting — KV counters,
// utilizations averaged across its instances over elapsed, link traffic
// and live blocks — into a Result, the same fields a single-testbed run
// fills.
func (rp *Replica) Result(elapsed sim.Time) *Result {
	res := &Result{Elapsed: elapsed}
	rp.d.finalize(res)
	return res
}
