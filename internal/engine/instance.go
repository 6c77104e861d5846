// Package engine implements the per-instance inference engine all three
// simulated systems (vLLM, DistServe, WindServe) are built from: an
// event-driven iteration loop with continuous batching, FCFS local
// scheduling, whole-prompt and chunked prefill, hybrid batches,
// swap-based preemption, and — for WindServe's decode instances —
// stream-based disaggregation, where dispatched prefills run concurrently
// with decode iterations in a second stream.
//
// The engine provides mechanism only. Policy (where a request prefills,
// when KV moves, when to migrate) lives in internal/sched and the system
// wiring in internal/serve, attached through Hooks.
package engine

import (
	"fmt"

	"windserve/internal/kvcache"
	"windserve/internal/metrics"
	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/xfer"
)

// Hooks are the policy callbacks a system attaches to an instance.
// Any hook may be nil.
type Hooks struct {
	// OnPrefillStart fires when a request's first prefill pass begins.
	OnPrefillStart func(r *Req)
	// OnFirstToken fires the moment prefill completes and the first output
	// token exists — including for requests whose output is a single token
	// (which never reach OnPrefillDone because they are already finished).
	OnFirstToken func(r *Req)
	// OnPrefillDone fires when the full prompt is prefilled and the
	// request still has tokens to decode. The request has been removed
	// from the prefill queue; the system decides what happens next (admit
	// locally, transfer, ...). The request's KV is still allocated on
	// this instance.
	OnPrefillDone func(r *Req)
	// OnDecodeStart fires when a request's first decode iteration begins.
	OnDecodeStart func(r *Req)
	// OnComplete fires at EOS. The engine has already released the
	// request's KV on this instance.
	OnComplete func(r *Req)
	// OnIterationEnd fires after each completed pass, after effects are
	// applied — the place for watermark checks (Dynamic Rescheduling).
	OnIterationEnd func()
	// OnEvicted fires when a request must restart from scratch because
	// even swap space ran out (KV already released). If nil the request
	// re-enters this instance's prefill queue.
	OnEvicted func(r *Req)
}

// Config fixes an instance's role and mechanisms.
type Config struct {
	Name string
	CM   *perf.CostModel
	KV   *kvcache.Manager
	// HostLink carries swap traffic. Swaps stall the engine (as in vLLM).
	HostLink *xfer.Link
	Tracer   *trace.Tracer

	// AllowPrefill permits prefill work in the main stream (true for
	// prefill instances and co-located engines; false for pure decode
	// instances, whose only prefill path is SBD assists).
	AllowPrefill bool
	// ChunkSize is the per-iteration new-token budget once decode jobs
	// share the main stream (chunked prefill). 0 disables chunking.
	ChunkSize int
	// AlwaysChunk forms every hybrid batch with the chunk budget even
	// when no decodes are running (vLLM's chunked-prefill mode).
	AlwaysChunk bool
	// MaxPrefillTokens bounds the total prompt tokens batched into one
	// whole-prompt prefill pass.
	MaxPrefillTokens int
	// MaxDecodeBatch bounds the running decode batch size.
	MaxDecodeBatch int
	// SBD runs assist prefills in a separate stream concurrently with
	// decode iterations (WindServe's Stream-based Disaggregation). When
	// false, assists join the prefill queue instead (the paper's
	// WindServe-no-split ablation).
	SBD bool
	// AssistBatchTokens bounds the prefill tokens batched into one SBD
	// pass (Algorithm 1 adds the whole assistRequests set to the decode
	// pipeline at once). Defaults to MaxPrefillTokens.
	AssistBatchTokens int
}

// Instance is one serving instance (a prefill, decode, or co-located
// engine) advancing on the shared simulator.
type Instance struct {
	cfg   Config
	sim   *sim.Simulator
	hooks Hooks

	prefillQ []*Req // FCFS prefill waiting queue
	assistQ  []*Req // dispatched prefills awaiting the SBD stream
	admitQ   []*Req // prefilled, KV resident, waiting to join running
	running  []*Req // decode batch
	swapped  []*Req // preempted to host memory

	busy        bool
	busyUntil   sim.Time
	stallUntil  sim.Time // swap transfers stall the next iteration
	kickPending bool
	// down marks a crashed instance: the iteration loop refuses to run
	// and epoch invalidates completions of passes that were in flight at
	// crash time (their closures compare epochs and bail).
	down  bool
	epoch uint64
	// slow multiplies pass durations (transient GPU slowdown fault);
	// 0 and 1 both mean nominal speed.
	slow float64
	// inFlight counts passes past their initiation interval but not yet
	// applied. Pipeline parallelism lets pure-prefill passes overlap: a
	// new prefill batch may enter stage 0 once the previous pass clears
	// it (one initiation interval = latency / PP), so a PP-p prefill
	// instance sustains ~p× the throughput of its per-pass latency.
	// Decode and hybrid passes never overlap (consecutive decode steps
	// are data-dependent).
	inFlight int

	assistActive []*Req // SBD pass in flight (empty when stream 2 idle)
	assistBatch  perf.Batch

	freePlans []*passPlan // applied plans, reused by formBatch

	// Telemetry.
	ComputeGauge metrics.Gauge // tensor-core utilization (Fig. 2)
	BWGauge      metrics.Gauge // HBM bandwidth utilization (Fig. 2)
	Iterations   uint64
	SwapStall    sim.Duration
	Recomputes   uint64
}

// NewInstance validates config and returns an idle instance.
func NewInstance(s *sim.Simulator, cfg Config, hooks Hooks) (*Instance, error) {
	if cfg.CM == nil || cfg.KV == nil {
		return nil, fmt.Errorf("engine: %s needs a cost model and KV manager", cfg.Name)
	}
	if cfg.MaxDecodeBatch <= 0 {
		cfg.MaxDecodeBatch = 256
	}
	if cfg.MaxPrefillTokens <= 0 {
		cfg.MaxPrefillTokens = 8192
	}
	if cfg.AssistBatchTokens <= 0 {
		cfg.AssistBatchTokens = cfg.MaxPrefillTokens
	}
	return &Instance{cfg: cfg, sim: s, hooks: hooks}, nil
}

// Name returns the instance name.
func (ins *Instance) Name() string { return ins.cfg.Name }

// KV exposes the instance's block manager (systems allocate transfer
// targets and backups through it).
func (ins *Instance) KV() *kvcache.Manager { return ins.cfg.KV }

// CM exposes the cost model (the Profiler profiles against it).
func (ins *Instance) CM() *perf.CostModel { return ins.cfg.CM }

// --- Work submission -------------------------------------------------

// EnqueuePrefill adds a request to the FCFS prefill queue.
func (ins *Instance) EnqueuePrefill(r *Req) {
	r.Phase = PhaseWaiting
	ins.prefillQ = append(ins.prefillQ, r)
	ins.Kick()
}

// EnqueueAssist adds a dispatched prefill. With SBD it runs in the second
// stream; otherwise it degrades to a normal prefill enqueue. The caller
// must have allocated KV for prompt+1 tokens on this instance already.
func (ins *Instance) EnqueueAssist(r *Req) {
	r.Assist = true
	if !ins.cfg.SBD {
		ins.EnqueuePrefill(r)
		return
	}
	r.Phase = PhaseWaiting
	ins.assistQ = append(ins.assistQ, r)
	ins.Kick()
}

// AdmitDecode queues a prefilled request (KV resident here) for the
// running batch.
func (ins *Instance) AdmitDecode(r *Req) {
	r.Phase = PhasePendingDecode
	ins.admitQ = append(ins.admitQ, r)
	ins.Kick()
}

// InsertRunning adds a request directly to the running batch (migration
// resume). KV must already be resident.
func (ins *Instance) InsertRunning(r *Req) {
	r.Phase = PhaseDecoding
	ins.joinRunning(r)
	ins.Kick()
}

// joinRunning appends r to the running batch and marks its membership.
func (ins *Instance) joinRunning(r *Req) {
	r.runningOn = ins
	ins.running = append(ins.running, r)
}

// RemoveRunning takes a request out of the running batch (migration
// drain). Reports whether it was present.
func (ins *Instance) RemoveRunning(r *Req) bool {
	if r.runningOn != ins {
		return false
	}
	r.runningOn = nil
	ins.running = removeReq(ins.running, r)
	return true
}

// ReleaseKV frees a request's blocks here and re-kicks the engine (freed
// space may unblock queued work).
func (ins *Instance) ReleaseKV(r *Req) {
	if ins.cfg.KV.Has(r.KVID()) {
		if err := ins.cfg.KV.Release(r.KVID()); err != nil {
			panic(fmt.Sprintf("engine: %s release %v: %v", ins.cfg.Name, r, err))
		}
	}
	ins.Kick()
}

// --- Fault injection ---------------------------------------------------

// Crash takes the instance down, losing its KV cache and all in-flight
// work: passes in either stream are invalidated (their completion events
// compare epochs and bail), queues are emptied, and every resident
// request is returned for the system layer to recover elsewhere. The
// returned orphans preserve queue order (prefill queue, assist queue,
// active assists, admit queue, running batch, swapped) so recovery is
// deterministic.
func (ins *Instance) Crash() []*Req {
	ins.down = true
	ins.epoch++
	ins.busy = false
	ins.inFlight = 0
	ins.stallUntil = 0
	var orphans []*Req
	collect := func(rs []*Req) {
		for _, r := range rs {
			r.inPass = false
			orphans = append(orphans, r)
		}
	}
	collect(ins.prefillQ)
	collect(ins.assistQ)
	collect(ins.assistActive)
	collect(ins.admitQ)
	for _, r := range ins.running {
		r.runningOn = nil
	}
	collect(ins.running)
	collect(ins.swapped)
	ins.prefillQ, ins.assistQ, ins.assistActive = nil, nil, nil
	ins.admitQ, ins.running, ins.swapped = nil, nil, nil
	ins.assistBatch = perf.Batch{}
	ins.cfg.KV.Reset()
	return orphans
}

// Restore brings a crashed instance back, empty, and restarts its loop.
func (ins *Instance) Restore() {
	if !ins.down {
		return
	}
	ins.down = false
	ins.Kick()
}

// Down reports whether the instance is crashed.
func (ins *Instance) Down() bool { return ins.down }

// SetSlowdown multiplies future pass durations by factor (>= 1; smaller
// values restore nominal speed). Passes already in flight keep their
// original durations.
func (ins *Instance) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	ins.slow = factor
}

// Slowdown returns the current pass-duration multiplier (1 when nominal).
func (ins *Instance) Slowdown() float64 {
	if ins.slow > 1 {
		return ins.slow
	}
	return 1
}

// SetAllowPrefill changes whether the main stream accepts prefill work —
// the elastic role-flip switch. Enabling kicks the engine (queued
// prompts may now form a pass); disabling never interrupts a pass in
// flight, and requests already queued or mid-chunk keep draining (the
// batch former reads the flag per pass, so only future passes change).
func (ins *Instance) SetAllowPrefill(v bool) {
	if ins.cfg.AllowPrefill == v {
		return
	}
	ins.cfg.AllowPrefill = v
	if v {
		ins.Kick()
	}
}

// DrainPrefillQueue removes and returns the untouched portion of the
// main-stream prefill queue — requests no pass has started and no KV
// allocation binds here — preserving FCFS order. Requests mid-pass or
// with resident KV (a chunked prefill between passes, a prefix-cache
// hold) stay and finish locally; the caller re-routes the drained rest.
func (ins *Instance) DrainPrefillQueue() []*Req {
	var drained []*Req
	keep := ins.prefillQ[:0]
	for _, r := range ins.prefillQ {
		if r.inPass || ins.cfg.KV.Has(r.KVID()) {
			keep = append(keep, r)
		} else {
			drained = append(drained, r)
		}
	}
	ins.prefillQ = keep
	return drained
}

// Abort removes a cancelled request from every queue and releases its KV
// here. The caller must have set PhaseAborted first so in-flight pass
// effects (which cannot be recalled) skip the request when they apply.
// Requests unknown to this instance are a safe no-op.
func (ins *Instance) Abort(r *Req) {
	ins.prefillQ = removeReq(ins.prefillQ, r)
	ins.assistQ = removeReq(ins.assistQ, r)
	ins.admitQ = removeReq(ins.admitQ, r)
	ins.swapped = removeReq(ins.swapped, r)
	ins.RemoveRunning(r)
	// Requests in assistActive stay in the slice (the pass is running);
	// the completion loop skips aborted entries.
	ins.ReleaseKV(r)
}

func removeReq(rs []*Req, r *Req) []*Req {
	for i, x := range rs {
		if x == r {
			return append(rs[:i], rs[i+1:]...)
		}
	}
	return rs
}

// --- Observability (the Global Scheduler's view) ----------------------

// QueuedPrefillTokens sums the unprefilled prompt tokens waiting in the
// main-stream queue — Algorithm 1's load signal.
func (ins *Instance) QueuedPrefillTokens() int {
	n := 0
	for _, r := range ins.prefillQ {
		n += r.PrefillRemaining()
	}
	return n
}

// BusyRemaining is the time until the current pass completes (0 if idle).
func (ins *Instance) BusyRemaining() sim.Duration {
	if !ins.busy {
		return 0
	}
	return ins.busyUntil.Sub(ins.sim.Now())
}

// RunningShape describes the current decode batch.
func (ins *Instance) RunningShape() perf.Batch {
	b := perf.Batch{DecodeReqs: len(ins.running)}
	for _, r := range ins.running {
		b.DecodeSumCtx += r.Ctx()
	}
	return b
}

// Running returns the live decode batch (callers must not mutate).
func (ins *Instance) Running() []*Req { return ins.running }

// NumRunning returns the decode batch size.
func (ins *Instance) NumRunning() int { return len(ins.running) }

// NumSwapped returns how many requests are preempted to host memory.
func (ins *Instance) NumSwapped() int { return len(ins.swapped) }

// NumQueued returns prefill queue length.
func (ins *Instance) NumQueued() int { return len(ins.prefillQ) }

// PendingAdmits returns how many prefilled requests await decode admission.
func (ins *Instance) PendingAdmits() int { return len(ins.admitQ) }

// AssistPendingTokens sums prompt tokens of queued + active assists.
func (ins *Instance) AssistPendingTokens() int {
	n := 0
	for _, r := range ins.assistQ {
		n += r.PrefillRemaining()
	}
	for _, r := range ins.assistActive {
		n += r.W.PromptTokens
	}
	return n
}

// AssistActive reports whether an SBD prefill pass is in flight.
func (ins *Instance) AssistActive() bool { return len(ins.assistActive) > 0 }

// FreeKVTokens returns the token capacity of free blocks.
func (ins *Instance) FreeKVTokens() int { return ins.cfg.KV.FreeTokens() }

// Idle reports whether the main stream has nothing running or runnable.
func (ins *Instance) Idle() bool {
	return !ins.busy && len(ins.running) == 0 && len(ins.prefillQ) == 0 &&
		len(ins.admitQ) == 0 && len(ins.assistActive) == 0 && len(ins.assistQ) == 0
}

// --- The iteration loop ------------------------------------------------

// Kick schedules a scheduling pass if none is pending. Idempotent; safe to
// call from hooks and completions.
func (ins *Instance) Kick() {
	if ins.kickPending {
		return
	}
	ins.kickPending = true
	delay := sim.Duration(0)
	if now := ins.sim.Now(); ins.stallUntil > now && !ins.busy {
		delay = ins.stallUntil.Sub(now)
	}
	ins.sim.Schedule(delay, func() {
		ins.kickPending = false
		ins.step()
	})
}

func (ins *Instance) step() {
	if ins.down || ins.busy {
		return
	}
	if now := ins.sim.Now(); ins.stallUntil > now {
		ins.Kick()
		return
	}
	if ins.inFlight > 0 && (len(ins.running) > 0 || len(ins.admitQ) > 0 || len(ins.swapped) > 0) {
		// Decode work is runnable but prefill passes are still in the
		// pipeline; wait for them to drain (their completions re-kick).
		return
	}
	ins.trySwapIn()
	ins.admit()
	ins.maybeStartAssist()
	batch, plan := ins.formBatch()
	if batch.Empty() {
		ins.recyclePlan(plan)
		return
	}
	start := ins.sim.Now()
	dur := ins.passDuration(batch)
	// Pure-prefill passes on a PP>1 placement pipeline: the engine frees
	// for the next batch after one initiation interval, while the pass's
	// effects land at its full latency.
	initiation := dur
	if len(plan.decodes) == 0 && ins.cfg.CM.Place.PP > 1 {
		initiation = dur / sim.Duration(ins.cfg.CM.Place.PP)
	}
	ins.busy = true
	ins.busyUntil = start.Add(dur)
	ins.inFlight++
	ins.Iterations++
	ins.recordUtilization(batch, start, dur)
	ins.tracePass(batch, plan, start, dur)
	for _, r := range plan.newDecodes {
		if ins.hooks.OnDecodeStart != nil {
			ins.hooks.OnDecodeStart(r)
		}
	}
	epoch := ins.epoch
	ins.sim.Schedule(initiation, func() {
		if ins.epoch != epoch {
			return // crashed mid-pass; Crash already reset busy
		}
		ins.busy = false
		ins.Kick()
	})
	ins.sim.Schedule(dur, func() {
		if ins.epoch != epoch {
			return // crashed mid-pass; the pass's effects are lost
		}
		ins.inFlight--
		ins.apply(plan)
		if ins.hooks.OnIterationEnd != nil {
			ins.hooks.OnIterationEnd()
		}
		ins.Kick()
	})
}

// passPlan remembers what a pass will do so apply() can commit it. Plans
// are recycled through Instance.freePlans, so a steady pass allocates no
// slices; each pass in flight (pipelined PP>1 prefills) holds its own.
type passPlan struct {
	prefillSegs []prefillSeg
	decodes     []*Req
	newDecodes  []*Req            // first decode step this pass
	prefill     []perf.PrefillSeg // backing array of the batch's Prefill
}

// recyclePlan empties the plan, dropping its request pointers so finished
// requests are not kept alive, and returns it to the free list.
func (ins *Instance) recyclePlan(plan *passPlan) {
	clear(plan.prefillSegs)
	clear(plan.decodes)
	clear(plan.newDecodes)
	plan.prefillSegs, plan.decodes = plan.prefillSegs[:0], plan.decodes[:0]
	plan.newDecodes, plan.prefill = plan.newDecodes[:0], plan.prefill[:0]
	ins.freePlans = append(ins.freePlans, plan)
}

type prefillSeg struct {
	r      *Req
	tokens int
}

// passDuration selects the timing model: SBD contention applies to decode
// passes while an assist prefill stream is active.
func (ins *Instance) passDuration(b perf.Batch) sim.Duration {
	if len(ins.assistActive) > 0 {
		return ins.slowed(ins.cfg.CM.SBDDecodeTime(b, ins.assistBatch))
	}
	return ins.slowed(ins.cfg.CM.IterTime(b))
}

// slowed applies the transient-slowdown fault multiplier to a pass time.
func (ins *Instance) slowed(d sim.Duration) sim.Duration {
	if ins.slow > 1 {
		return sim.Duration(float64(d) * ins.slow)
	}
	return d
}

// admit moves pending requests into the running batch.
func (ins *Instance) admit() {
	for len(ins.admitQ) > 0 && len(ins.running) < ins.cfg.MaxDecodeBatch {
		r := ins.admitQ[0]
		ins.admitQ = ins.admitQ[1:]
		r.Phase = PhaseDecoding
		ins.joinRunning(r)
	}
}

// trySwapIn restores the oldest preempted request if blocks allow.
// Swapped requests take priority over new admissions (vLLM policy).
func (ins *Instance) trySwapIn() {
	for len(ins.swapped) > 0 && len(ins.running) < ins.cfg.MaxDecodeBatch {
		r := ins.swapped[0]
		tokens, err := ins.cfg.KV.SwapIn(r.KVID())
		if err != nil {
			return // no space yet; retry on a later kick
		}
		ins.swapped = ins.swapped[1:]
		ins.stall(ins.swapTime(tokens), trace.KindSwapIn, r)
		r.Phase = PhaseDecoding
		ins.joinRunning(r)
	}
}

// maybeStartAssist launches the next SBD prefill pass in the second
// stream, batching queued assists up to AssistBatchTokens (Algorithm 1
// adds the accumulated assistRequests to the decode pipeline together).
func (ins *Instance) maybeStartAssist() {
	if !ins.cfg.SBD || len(ins.assistActive) > 0 || len(ins.assistQ) == 0 {
		return
	}
	var batch perf.Batch
	budget := ins.cfg.AssistBatchTokens
	for len(ins.assistQ) > 0 {
		r := ins.assistQ[0]
		n := r.PrefillRemaining()
		if n > budget && len(ins.assistActive) > 0 {
			break
		}
		ins.assistQ = ins.assistQ[1:]
		r.Phase = PhasePrefilling
		ins.assistActive = append(ins.assistActive, r)
		batch.Prefill = append(batch.Prefill, perf.PrefillSeg{NewTokens: n})
		if ins.hooks.OnPrefillStart != nil {
			ins.hooks.OnPrefillStart(r)
		}
		budget -= n
		if budget <= 0 {
			break
		}
	}
	ins.assistBatch = batch
	start := ins.sim.Now()
	dur := ins.slowed(ins.cfg.CM.SBDPrefillTime(batch, ins.RunningShape()))
	cost := ins.cfg.CM.BatchCost(batch)
	ins.ComputeGauge.AddInterval(start, start.Add(dur),
		cost.FLOPs()/(dur.Seconds()*ins.cfg.CM.GPU.FLOPS()*float64(ins.cfg.CM.Place.GPUs())))
	if ins.cfg.Tracer != nil {
		ins.cfg.Tracer.Add(ins.cfg.Name+"/stream2", trace.KindSBDPrefill, start, start.Add(dur),
			fmt.Sprintf("%d reqs n=%d", len(ins.assistActive), batch.PrefillTokens()))
	}
	done := ins.assistActive
	epoch := ins.epoch
	ins.sim.Schedule(dur, func() {
		if ins.epoch != epoch {
			return // crashed mid-pass; the assist batch was orphaned
		}
		ins.assistActive = nil
		for _, r := range done {
			if r.Phase == PhaseAborted {
				continue // cancelled mid-pass; KV already released
			}
			r.PrefillDone = r.W.PromptTokens
			ins.finishPrefill(r)
		}
		ins.Kick()
	})
}

// formBatch builds the next main-stream pass under FCFS with continuous
// batching.
func (ins *Instance) formBatch() (perf.Batch, *passPlan) {
	plan := &passPlan{}
	if n := len(ins.freePlans); n > 0 {
		plan = ins.freePlans[n-1]
		ins.freePlans = ins.freePlans[:n-1]
	}
	b := perf.Batch{DecodeReqs: len(ins.running)}
	for _, r := range ins.running {
		b.DecodeSumCtx += r.Ctx()
		r.inPass = true
		plan.decodes = append(plan.decodes, r)
		if r.Generated == 1 && !r.Migrating {
			plan.newDecodes = append(plan.newDecodes, r)
		}
	}
	if ins.cfg.AllowPrefill {
		chunked := ins.cfg.ChunkSize > 0 && (ins.cfg.AlwaysChunk || len(ins.running) > 0)
		if chunked {
			ins.fillChunked(plan)
		} else {
			ins.fillWholePrompts(plan)
		}
		b.Prefill = plan.prefill
	}
	return b, plan
}

// fillWholePrompts batches entire prompts FCFS up to MaxPrefillTokens.
func (ins *Instance) fillWholePrompts(plan *passPlan) {
	budget := ins.cfg.MaxPrefillTokens
	for _, r := range ins.prefillQ {
		if r.inPass {
			continue // already in a pipelined pass in flight
		}
		n := r.PrefillRemaining()
		if n > budget && len(plan.prefillSegs) > 0 {
			break // keep FCFS: stop at the first request that doesn't fit
		}
		if !ins.ensureKV(r) {
			break // head-of-line blocks until space frees
		}
		if rem := r.PrefillRemaining(); rem < n {
			n = rem // a prefix-cache hit during allocation shrank the prefill
		}
		plan.prefill = append(plan.prefill, perf.PrefillSeg{NewTokens: n, CtxBefore: r.PrefillDone})
		plan.prefillSegs = append(plan.prefillSegs, prefillSeg{r: r, tokens: n})
		r.inPass = true
		ins.startPrefillOnce(r)
		budget -= n
		if budget <= 0 {
			break
		}
	}
}

// fillChunked batches up to ChunkSize new prefill tokens FCFS.
func (ins *Instance) fillChunked(plan *passPlan) {
	budget := ins.cfg.ChunkSize
	for _, r := range ins.prefillQ {
		if budget <= 0 {
			break
		}
		if r.inPass {
			continue
		}
		if !ins.ensureKV(r) {
			break
		}
		n := r.PrefillRemaining()
		if n > budget {
			n = budget
		}
		plan.prefill = append(plan.prefill, perf.PrefillSeg{NewTokens: n, CtxBefore: r.PrefillDone})
		plan.prefillSegs = append(plan.prefillSegs, prefillSeg{r: r, tokens: n})
		r.inPass = true
		ins.startPrefillOnce(r)
		budget -= n
	}
}

// ensureKV allocates prompt+1 tokens for a request about to prefill here.
func (ins *Instance) ensureKV(r *Req) bool {
	return ins.AllocatePrefillKV(r)
}

// AllocatePrefillKV reserves KV for a request about to prefill on this
// instance. With prefix caching enabled on the manager and prefix
// identity on the request, shared blocks are acquired instead of fresh
// ones: hit tokens count as already prefilled (shrinking the prefill
// work by the hit length), and any hit blocks demoted to the host tier
// charge their PCIe restore time as a swap-in stall before the pass
// runs. Exported so the serve layer's decode-side assist path allocates
// through the same logic.
func (ins *Instance) AllocatePrefillKV(r *Req) bool {
	kv := ins.cfg.KV
	if kv.Has(r.KVID()) {
		return true
	}
	if kv.PrefixEnabled() && r.W.PrefixGroup != 0 && r.PrefillDone == 0 {
		acq, err := kv.AllocatePrefixed(r.KVID(), r.W.PromptTokens+1, r.W.PrefixGroup, r.W.PrefixTokens)
		if err != nil {
			return false
		}
		if hit := acq.HitTokens; hit > 0 {
			// At least the last prompt token is always computed.
			if hit > r.W.PromptTokens-1 {
				hit = r.W.PromptTokens - 1
			}
			r.PrefixHit = hit
			r.PrefillDone = hit
		}
		if acq.RestoredTokens > 0 {
			if ins.cfg.HostLink != nil {
				ins.cfg.HostLink.AccountBytes(float64(acq.RestoredTokens) * ins.cfg.CM.Cfg.KVBytesPerToken())
			}
			ins.stall(ins.swapTime(acq.RestoredTokens), trace.KindSwapIn, r)
		}
		return true
	}
	return kv.Allocate(r.KVID(), r.W.PromptTokens+1) == nil
}

func (ins *Instance) startPrefillOnce(r *Req) {
	if r.Phase != PhasePrefilling {
		r.Phase = PhasePrefilling
		if ins.hooks.OnPrefillStart != nil {
			ins.hooks.OnPrefillStart(r)
		}
	}
}

// apply commits a completed pass.
func (ins *Instance) apply(plan *passPlan) {
	// Prefill progress.
	for _, seg := range plan.prefillSegs {
		seg.r.inPass = false
		if seg.r.Phase == PhaseAborted {
			continue // cancelled mid-pass; already dequeued and released
		}
		seg.r.PrefillDone += seg.tokens
		if seg.r.PrefillComplete() {
			ins.dequeuePrefill(seg.r)
			ins.finishPrefill(seg.r)
		}
	}
	// Decode progress.
	for _, r := range plan.decodes {
		r.inPass = false
		if r.runningOn != ins {
			// Evicted or drained (migration) after this pass was formed —
			// possibly already running elsewhere. Its slot's token is lost.
			continue
		}
		r.Generated++
		if r.Finished() {
			ins.RemoveRunning(r)
			r.Phase = PhaseDone
			ins.ReleaseKV(r)
			if ins.hooks.OnComplete != nil {
				ins.hooks.OnComplete(r)
			}
			continue
		}
		ins.growOrPreempt(r)
	}
	ins.recyclePlan(plan)
	ins.sampleCounters()
}

// sampleCounters records the instance's occupancy timeseries at pass
// boundaries — the only instants the values change. The exporter turns
// these into Perfetto counter tracks; sampling on simulator events (not a
// wall-clock ticker) keeps overhead zero when tracing is off and exact
// when it is on.
func (ins *Instance) sampleCounters() {
	t := ins.cfg.Tracer
	if t == nil {
		return
	}
	now := ins.sim.Now()
	name := ins.cfg.Name
	t.Counter(name+"/running", now, float64(len(ins.running)))
	t.Counter(name+"/queued", now, float64(len(ins.prefillQ)+len(ins.assistQ)+len(ins.admitQ)))
	t.Counter(name+"/kv_util", now, ins.cfg.KV.Utilization())
}

// finishPrefill handles full-prompt completion: the first output token
// exists now.
func (ins *Instance) finishPrefill(r *Req) {
	if r.Generated == 0 {
		r.Generated = 1
	}
	if ins.hooks.OnFirstToken != nil {
		ins.hooks.OnFirstToken(r)
	}
	if r.Finished() { // single-token outputs complete at prefill
		r.Phase = PhaseDone
		ins.ReleaseKV(r)
		if ins.hooks.OnComplete != nil {
			ins.hooks.OnComplete(r)
		}
		return
	}
	if ins.hooks.OnPrefillDone != nil {
		ins.hooks.OnPrefillDone(r)
		return
	}
	// Default policy (co-located engine): join the local decode batch.
	ins.AdmitDecode(r)
}

func (ins *Instance) dequeuePrefill(r *Req) {
	for i, x := range ins.prefillQ {
		if x == r {
			ins.prefillQ = append(ins.prefillQ[:i], ins.prefillQ[i+1:]...)
			return
		}
	}
}

// growOrPreempt extends r's KV by one token, evicting low-priority
// requests (LIFO — latest admitted first, vLLM's policy) until it fits.
func (ins *Instance) growOrPreempt(r *Req) {
	kv := ins.cfg.KV
	if r.kvm != kv || !r.kvh.Live() {
		r.kvm, r.kvh = kv, kv.Handle(r.KVID())
	}
	for {
		err := kv.GrowHandle(r.kvh, r.KVID(), r.Ctx())
		if err == nil {
			return
		}
		victim := ins.pickVictim()
		if victim == nil {
			// Nothing left to evict but the request itself.
			ins.evict(r)
			return
		}
		ins.evict(victim)
		if victim == r {
			return
		}
	}
}

// pickVictim returns the latest-admitted running request, preferring not
// to evict migrating requests (their copies are in flight).
func (ins *Instance) pickVictim() *Req {
	for i := len(ins.running) - 1; i >= 0; i-- {
		if !ins.running[i].Migrating {
			return ins.running[i]
		}
	}
	if len(ins.running) > 0 {
		return ins.running[len(ins.running)-1]
	}
	return nil
}

// evict swaps a running request out to host memory, or — if swap space is
// exhausted — releases its KV for full recomputation.
func (ins *Instance) evict(r *Req) {
	ins.RemoveRunning(r)
	r.Evictions++
	tokens, err := ins.cfg.KV.SwapOut(r.KVID())
	if err == nil {
		r.Phase = PhaseSwapped
		ins.swapped = append(ins.swapped, r)
		ins.stall(ins.swapTime(tokens), trace.KindSwapOut, r)
		return
	}
	// Recompute path: drop the KV and prefill again from scratch.
	ins.Recomputes++
	ins.ReleaseKV(r)
	r.PrefillDone = 0
	r.PrefixHit = 0
	r.Migrating = false
	if ins.hooks.OnEvicted != nil {
		r.Phase = PhaseWaiting
		ins.hooks.OnEvicted(r)
		return
	}
	ins.EnqueuePrefill(r)
}

// swapTime is the host-link time for a request's KV payload.
func (ins *Instance) swapTime(tokens int) sim.Duration {
	if ins.cfg.HostLink == nil {
		return 0
	}
	return ins.cfg.HostLink.TransferTime(float64(tokens) * ins.cfg.CM.Cfg.KVBytesPerToken())
}

// stall blocks the next iteration for d (swap transfers synchronize the
// engine, as in vLLM) and traces the swap span.
func (ins *Instance) stall(d sim.Duration, kind trace.Kind, r *Req) {
	if d <= 0 {
		return
	}
	now := ins.sim.Now()
	base := now
	if ins.stallUntil > base {
		base = ins.stallUntil
	}
	ins.stallUntil = base.Add(d)
	ins.SwapStall += d
	if ins.cfg.Tracer != nil {
		ins.cfg.Tracer.Add(ins.cfg.Name, kind, base, ins.stallUntil, fmt.Sprintf("req%d", r.W.ID))
	}
}

// recordUtilization charges the pass to the Fig. 2 gauges.
func (ins *Instance) recordUtilization(b perf.Batch, start sim.Time, dur sim.Duration) {
	if dur <= 0 {
		return
	}
	cost := ins.cfg.CM.BatchCost(b)
	gpus := float64(ins.cfg.CM.Place.GPUs())
	end := start.Add(dur)
	ins.ComputeGauge.AddInterval(start, end, cost.FLOPs()/(dur.Seconds()*ins.cfg.CM.GPU.FLOPS()*gpus))
	ins.BWGauge.AddInterval(start, end, cost.IOBytes()/(dur.Seconds()*ins.cfg.CM.GPU.BandwidthBytes()*gpus))
}

func (ins *Instance) tracePass(b perf.Batch, plan *passPlan, start sim.Time, dur sim.Duration) {
	if ins.cfg.Tracer == nil {
		return
	}
	kind := trace.KindDecode
	switch {
	case len(plan.prefillSegs) > 0 && b.DecodeReqs > 0:
		kind = trace.KindHybrid
	case len(plan.prefillSegs) > 0:
		kind = trace.KindPrefill
		if plan.prefillSegs[0].tokens < plan.prefillSegs[0].r.W.PromptTokens {
			kind = trace.KindChunk
		}
	case len(ins.assistActive) > 0:
		kind = trace.KindSBDDecode
	}
	ins.cfg.Tracer.Add(ins.cfg.Name, kind, start, start.Add(dur),
		fmt.Sprintf("pre=%d dec=%d", b.PrefillTokens(), b.DecodeReqs))
}
