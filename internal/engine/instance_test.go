package engine

import (
	"testing"

	"fmt"

	"windserve/internal/gpu"
	"windserve/internal/kvcache"
	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/workload"
	"windserve/internal/xfer"
)

// tinyModel is a small config so tests control KV budgets precisely.
func tinyModel() model.Config {
	return model.Config{
		Name: "tiny", Layers: 4, Hidden: 512, Heads: 8, KVHeads: 8,
		FFNDim: 2048, MaxContext: 2048, VocabSize: 1000,
	}
}

type harness struct {
	s   *sim.Simulator
	ins *Instance
	kv  *kvcache.Manager

	prefilled []uint64
	decoded   []uint64
	completed []uint64
	evicted   []*Req
}

func newHarness(t *testing.T, kvTokens, cpuTokens int, mut func(*Config), hookMut func(*harness, *Hooks)) *harness {
	t.Helper()
	h := &harness{s: sim.New()}
	cm := perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, perf.DefaultParams())
	h.kv = kvcache.MustNew(kvTokens, cpuTokens, 16)
	host := xfer.NewLink(h.s, "host", gpu.HostPCIe, 1)
	cfg := Config{
		Name: "test", CM: cm, KV: h.kv, HostLink: host,
		AllowPrefill: true, MaxPrefillTokens: 4096,
	}
	if mut != nil {
		mut(&cfg)
	}
	hooks := Hooks{
		OnPrefillDone: nil,
		OnComplete:    func(r *Req) { h.completed = append(h.completed, r.W.ID) },
		OnDecodeStart: func(r *Req) { h.decoded = append(h.decoded, r.W.ID) },
	}
	hooks.OnPrefillStart = func(r *Req) { h.prefilled = append(h.prefilled, r.W.ID) }
	if hookMut != nil {
		hookMut(h, &hooks)
	}
	ins, err := NewInstance(h.s, cfg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	h.ins = ins
	return h
}

func req(id uint64, prompt, output int) *Req {
	return NewReq(workload.Request{ID: id, PromptTokens: prompt, OutputTokens: output})
}

func TestReqAccessors(t *testing.T) {
	r := req(1, 100, 10)
	if r.Ctx() != 100 || r.PrefillComplete() || r.Finished() {
		t.Error("fresh request state")
	}
	r.PrefillDone = 60
	if r.PrefillRemaining() != 40 {
		t.Error("PrefillRemaining")
	}
	r.PrefillDone = 100
	r.Generated = 10
	if !r.PrefillComplete() || !r.Finished() || r.Ctx() != 110 {
		t.Error("finished request state")
	}
	if r.KVID() != kvcache.RequestID(1) {
		t.Error("KVID")
	}
	for p := PhaseWaiting; p <= PhaseDone; p++ {
		if p.String() == "" {
			t.Error("empty phase string")
		}
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase string")
	}
}

func TestColocatedEndToEnd(t *testing.T) {
	h := newHarness(t, 1<<20, 1<<20, nil, nil)
	// Three requests: prefill then decode to completion locally.
	for i := 1; i <= 3; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 200, 5))
	}
	h.s.RunAll()
	if len(h.completed) != 3 {
		t.Fatalf("completed %d of 3: %v", len(h.completed), h.completed)
	}
	if len(h.prefilled) != 3 {
		t.Errorf("prefill started for %v", h.prefilled)
	}
	if h.ins.NumRunning() != 0 || h.ins.NumQueued() != 0 {
		t.Error("instance not drained")
	}
	if h.kv.UsedBlocks() != 0 {
		t.Errorf("leaked %d KV blocks", h.kv.UsedBlocks())
	}
	if h.ins.Iterations == 0 {
		t.Error("no iterations counted")
	}
}

func TestSingleTokenOutputCompletesAtPrefill(t *testing.T) {
	h := newHarness(t, 1<<20, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 300, 1))
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("single-token request did not complete")
	}
	if len(h.decoded) != 0 {
		t.Error("single-token request should never decode")
	}
	if h.kv.UsedBlocks() != 0 {
		t.Error("KV leaked")
	}
}

func TestFCFSPrefillOrder(t *testing.T) {
	var order []uint64
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.MaxPrefillTokens = 100 // force one prompt per pass
	}, func(h *harness, hk *Hooks) {
		hk.OnPrefillDone = func(r *Req) { order = append(order, r.W.ID) }
	})
	for i := 1; i <= 4; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 100, 1))
	}
	h.s.RunAll()
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("prefill order = %v, want FCFS", order)
		}
	}
}

func TestWholePromptBatching(t *testing.T) {
	// With a 400-token budget, four 100-token prompts prefill in one pass.
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.MaxPrefillTokens = 400 }, nil)
	for i := 1; i <= 4; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 100, 1))
	}
	h.s.RunAll()
	if h.ins.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 batched prefill pass", h.ins.Iterations)
	}
}

func TestChunkedPrefillProgresses(t *testing.T) {
	// AlwaysChunk with a 128-token budget: a 512-token prompt needs 4
	// chunk passes.
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.ChunkSize = 128
		c.AlwaysChunk = true
	}, nil)
	h.ins.EnqueuePrefill(req(1, 512, 1))
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("chunked request did not complete")
	}
	if h.ins.Iterations != 4 {
		t.Errorf("iterations = %d, want 4 chunks", h.ins.Iterations)
	}
}

func TestHybridChunkingWhenDecodesPresent(t *testing.T) {
	// Without AlwaysChunk, chunking starts only once decodes are running:
	// request 1's prefill runs whole (queue was empty of decodes), then
	// request 2's 512-token prompt must ride along decode passes in
	// chunks of at most 128 tokens.
	tr := trace.New()
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.ChunkSize = 128
		c.Tracer = tr
	}, nil)
	h.ins.EnqueuePrefill(req(1, 256, 50)) // becomes a decode
	// Request 2 arrives once request 1 is already decoding.
	h.s.Schedule(sim.Seconds(0.02), func() { h.ins.EnqueuePrefill(req(2, 512, 1)) })
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v", h.completed)
	}
	sawWhole, maxHybridPrefill := false, 0
	for _, sp := range tr.Filter("test") {
		var pre, dec int
		if _, err := fmt.Sscanf(sp.Detail, "pre=%d dec=%d", &pre, &dec); err != nil {
			continue
		}
		if dec == 0 && pre == 256 {
			sawWhole = true // request 1's un-chunked prefill
		}
		if dec > 0 && pre > maxHybridPrefill {
			maxHybridPrefill = pre
		}
	}
	if !sawWhole {
		t.Error("request 1 should prefill whole with no decodes running")
	}
	if maxHybridPrefill == 0 || maxHybridPrefill > 128 {
		t.Errorf("max prefill tokens in a hybrid pass = %d, want 1..128 (chunked)", maxHybridPrefill)
	}
}

func TestDecodeOnlyInstanceIgnoresPrefillQueue(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.AllowPrefill = false }, nil)
	h.ins.EnqueuePrefill(req(1, 100, 5))
	h.s.RunAll()
	if len(h.completed) != 0 {
		t.Error("decode-only instance must not prefill")
	}
	if h.ins.QueuedPrefillTokens() != 100 {
		t.Errorf("QueuedPrefillTokens = %d", h.ins.QueuedPrefillTokens())
	}
}

func TestAdmitDecodeExternalKV(t *testing.T) {
	// Decode-only instance: KV arrives via "transfer" (allocated by the
	// system), then AdmitDecode drives decoding to completion.
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.AllowPrefill = false }, nil)
	r := req(1, 100, 5)
	r.PrefillDone = 100
	r.Generated = 1
	if err := h.kv.Allocate(r.KVID(), 101); err != nil {
		t.Fatal(err)
	}
	h.ins.AdmitDecode(r)
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("admitted request did not complete")
	}
	if len(h.decoded) != 1 {
		t.Error("OnDecodeStart not fired")
	}
	if h.kv.UsedBlocks() != 0 {
		t.Error("KV leaked after completion")
	}
}

func TestPreemptionSwapsAndRecovers(t *testing.T) {
	// KV for ~word 640 tokens; two requests of 256+some growth force a
	// preemption as contexts grow, then swap-in resumes and both finish.
	h := newHarness(t, 640, 1<<20, nil, nil)
	h.ins.EnqueuePrefill(req(1, 256, 120))
	h.ins.EnqueuePrefill(req(2, 256, 120))
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both", h.completed)
	}
	st := h.kv.Stats()
	if st.SwapOutEvents == 0 {
		t.Error("expected at least one preemption swap")
	}
	if st.SwapInEvents == 0 {
		t.Error("swapped request never swapped back in")
	}
	if h.ins.SwapStall <= 0 {
		t.Error("swaps should stall the engine")
	}
}

func TestEvictionToRecomputeWhenNoSwapSpace(t *testing.T) {
	var evicted []*Req
	h := newHarness(t, 640, 0 /* no swap space */, nil, func(h *harness, hk *Hooks) {
		hk.OnEvicted = func(r *Req) { evicted = append(evicted, r) }
	})
	h.ins.EnqueuePrefill(req(1, 256, 200))
	h.ins.EnqueuePrefill(req(2, 256, 200))
	h.s.RunAll()
	if h.ins.Recomputes == 0 {
		t.Fatal("expected recompute evictions without swap space")
	}
	if len(evicted) == 0 {
		t.Fatal("OnEvicted hook not called")
	}
	for _, r := range evicted {
		if r.PrefillDone != 0 {
			t.Error("evicted request should restart prefill from zero")
		}
	}
}

func TestEvictionDefaultRequeuesLocally(t *testing.T) {
	// Without OnEvicted, evicted requests re-enter the local prefill queue
	// and eventually complete (KV just large enough for one at a time).
	h := newHarness(t, 384, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 128, 150))
	h.ins.EnqueuePrefill(req(2, 128, 150))
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both via recompute", h.completed)
	}
}

func TestSBDAssistRunsConcurrently(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.SBD = true
	}, nil)
	// A running decode job.
	d := req(1, 100, 400)
	d.PrefillDone, d.Generated = 100, 1
	if err := h.kv.Allocate(d.KVID(), 101); err != nil {
		t.Fatal(err)
	}
	h.ins.AdmitDecode(d)
	// An assist prefill dispatched here (KV pre-allocated by the system).
	a := req(2, 1024, 5)
	if err := h.kv.Allocate(a.KVID(), 1025); err != nil {
		t.Fatal(err)
	}
	h.ins.EnqueueAssist(a)
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both", h.completed)
	}
	// The assist must have overlapped decode iterations rather than
	// serializing: the decode stream never stops, so request 1's
	// completion time should be well below (decode iterations + full
	// prefill) serialized.
	if h.ins.AssistActive() {
		t.Error("assist still active after drain")
	}
}

func TestAssistBatchingSharesOnePass(t *testing.T) {
	// Several queued assists within the batch budget run in a single SBD
	// pass (Algorithm 1 inserts the accumulated assistRequests together);
	// an oversized backlog splits across passes.
	tr := trace.New()
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.SBD = true
		c.AssistBatchTokens = 1024
		c.Tracer = tr
	}, nil)
	for i := 1; i <= 4; i++ {
		a := req(uint64(i), 400, 2)
		if err := h.kv.Allocate(a.KVID(), 401); err != nil {
			t.Fatal(err)
		}
		h.ins.EnqueueAssist(a)
	}
	h.s.RunAll()
	if len(h.completed) != 4 {
		t.Fatalf("completed %v", h.completed)
	}
	// 4×400 tokens under a 1024 budget → 2 passes of 2 assists each.
	passes := tr.Filter("test/stream2")
	if len(passes) != 2 {
		t.Fatalf("SBD passes = %d, want 2: %+v", len(passes), passes)
	}
	for _, p := range passes {
		if p.Detail != "2 reqs n=800" {
			t.Errorf("pass detail = %q, want batched pair", p.Detail)
		}
	}
}

func TestAssistLargerThanBudgetStillRuns(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.SBD = true
		c.AssistBatchTokens = 256 // smaller than the prompt
	}, nil)
	a := req(1, 1024, 2)
	if err := h.kv.Allocate(a.KVID(), 1025); err != nil {
		t.Fatal(err)
	}
	h.ins.EnqueueAssist(a)
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("oversized assist starved")
	}
}

func TestAssistWithoutSBDFallsBackToQueue(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.SBD = false }, nil)
	a := req(1, 256, 3)
	if err := h.kv.Allocate(a.KVID(), 257); err != nil {
		t.Fatal(err)
	}
	h.ins.EnqueueAssist(a)
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("assist fallback did not complete")
	}
	if !a.Assist {
		t.Error("assist flag lost")
	}
}

func TestHeadOfLineBlocksUntilKVFrees(t *testing.T) {
	// KV fits one 256-token prompt at a time; the second waits, then runs
	// after the first completes and releases.
	h := newHarness(t, 272, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 256, 1))
	h.ins.EnqueuePrefill(req(2, 256, 1))
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both sequentially", h.completed)
	}
}

func TestMaxDecodeBatchCapsAdmission(t *testing.T) {
	// With MaxDecodeBatch=2, a third prefilled request waits in the admit
	// queue until a running slot frees, and all still finish.
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.MaxDecodeBatch = 2
	}, nil)
	for i := 1; i <= 3; i++ {
		r := req(uint64(i), 100, 30)
		r.PrefillDone, r.Generated = 100, 1
		if err := h.kv.Allocate(r.KVID(), 101); err != nil {
			t.Fatal(err)
		}
		h.ins.AdmitDecode(r)
	}
	h.s.Step() // first scheduling pass
	if h.ins.NumRunning() != 2 || h.ins.PendingAdmits() != 1 {
		t.Fatalf("running=%d pending=%d, want 2/1", h.ins.NumRunning(), h.ins.PendingAdmits())
	}
	h.s.RunAll()
	if len(h.completed) != 3 {
		t.Fatalf("completed %v", h.completed)
	}
}

func TestObservabilityViews(t *testing.T) {
	h := newHarness(t, 1<<20, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 300, 10))
	h.ins.EnqueuePrefill(req(2, 200, 10))
	if h.ins.QueuedPrefillTokens() != 500 {
		t.Errorf("QueuedPrefillTokens = %d", h.ins.QueuedPrefillTokens())
	}
	// Run one step to get busy.
	h.s.Step()
	if h.ins.BusyRemaining() <= 0 {
		t.Error("BusyRemaining should be positive during a pass")
	}
	h.s.RunAll()
	if h.ins.BusyRemaining() != 0 {
		t.Error("BusyRemaining after drain")
	}
	if h.ins.busy || len(h.ins.running) != 0 || len(h.ins.prefillQ) != 0 {
		t.Error("instance should be idle after drain")
	}
	shape := h.ins.RunningShape()
	if shape.DecodeReqs != 0 {
		t.Error("RunningShape after drain")
	}
	if h.ins.FreeKVTokens() != 1<<20 {
		t.Errorf("FreeKVTokens = %d", h.ins.FreeKVTokens())
	}
}

func TestUtilizationGaugesPopulated(t *testing.T) {
	h := newHarness(t, 1<<20, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 1024, 50))
	h.s.RunAll()
	if h.ins.ComputeGauge.ObservedTime() <= 0 {
		t.Error("compute gauge empty")
	}
	cu := h.ins.ComputeGauge.MeanOver(h.ins.ComputeGauge.ObservedTime())
	bu := h.ins.BWGauge.MeanOver(h.ins.BWGauge.ObservedTime())
	if cu <= 0 || cu > 1 {
		t.Errorf("compute utilization = %v", cu)
	}
	if bu <= 0 || bu > 1 {
		t.Errorf("bw utilization = %v", bu)
	}
}

func TestInsertAndRemoveRunning(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.AllowPrefill = false }, nil)
	r := req(1, 100, 50)
	r.PrefillDone, r.Generated = 100, 1
	if err := h.kv.Allocate(r.KVID(), 101); err != nil {
		t.Fatal(err)
	}
	h.ins.InsertRunning(r)
	if h.ins.NumRunning() != 1 {
		t.Fatal("InsertRunning failed")
	}
	if !h.ins.RemoveRunning(r) {
		t.Fatal("RemoveRunning failed")
	}
	if h.ins.RemoveRunning(r) {
		t.Fatal("double remove succeeded")
	}
}

func TestPPPipelinesPrefillThroughput(t *testing.T) {
	// With PP-2 (tiny model: 4 layers → 2 per stage), back-to-back
	// whole-prompt prefills overlap: 8 prompts should drain in roughly
	// half the serialized time (one initiation interval per pass plus one
	// pipeline drain), so comparing PP-2 vs PP-1 wall clock must show a
	// clear speedup despite PP-1 having lower per-pass latency.
	run := func(pp int) sim.Time {
		h := newHarness(t, 1<<20, 0, func(c *Config) {
			c.CM = perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: pp}, gpu.NVLinkBridge, perf.DefaultParams())
			c.MaxPrefillTokens = 600 // one prompt per pass
		}, nil)
		for i := 1; i <= 8; i++ {
			h.ins.EnqueuePrefill(req(uint64(i), 512, 1))
		}
		h.s.RunAll()
		if len(h.completed) != 8 {
			t.Fatalf("PP-%d: completed %d", pp, len(h.completed))
		}
		return h.s.Now()
	}
	serial := run(1)
	pipelined := run(2)
	if pipelined >= serial {
		t.Errorf("PP-2 wall clock %v not below PP-1 %v for a prefill train", pipelined, serial)
	}
}

func TestPipelinedPassesDoNotDuplicateRequests(t *testing.T) {
	// A request selected into an in-flight pipelined pass must not be
	// re-selected into the next pass: each request prefills exactly once.
	var done []uint64
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.CM = perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: 2}, gpu.NVLinkBridge, perf.DefaultParams())
		c.MaxPrefillTokens = 600
	}, func(h *harness, hk *Hooks) {
		hk.OnFirstToken = func(r *Req) { done = append(done, r.W.ID) }
	})
	for i := 1; i <= 6; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 512, 1))
	}
	h.s.RunAll()
	seen := map[uint64]int{}
	for _, id := range done {
		seen[id]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("request %d prefilled %d times", id, n)
		}
	}
	if len(seen) != 6 {
		t.Errorf("only %d requests finished prefill", len(seen))
	}
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(sim.New(), Config{Name: "x"}, Hooks{}); err == nil {
		t.Fatal("missing CM/KV accepted")
	}
}

// TestCrashMidPipelineRestoreCompletesOnce crashes a PP-2 prefill
// instance while two pipelined prefill passes are in flight, restores it
// at once and re-enqueues the orphans. The crashed passes' end events
// fire while the new passes run; they must not commit anything. Every
// request must then complete exactly once, with exactly one first token
// that lands a full pass latency after its last prefill start.
func TestCrashMidPipelineRestoreCompletesOnce(t *testing.T) {
	first := map[uint64]int{}
	firstAt := map[uint64]sim.Time{}
	startAt := map[uint64]sim.Time{}
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.CM = perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: 2}, gpu.NVLinkBridge, perf.DefaultParams())
		c.MaxPrefillTokens = 600 // one prompt per pass
	}, func(h *harness, hk *Hooks) {
		hk.OnPrefillStart = func(r *Req) { startAt[r.W.ID] = h.s.Now() }
		hk.OnFirstToken = func(r *Req) {
			first[r.W.ID]++
			firstAt[r.W.ID] = h.s.Now()
		}
	})
	const n = 6
	for i := 1; i <= n; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 512, 3))
	}
	for h.ins.inFlight < 2 {
		if !h.s.Step() {
			t.Fatal("simulator drained before two passes were in flight")
		}
	}
	if len(first) != 0 {
		t.Fatalf("first tokens %v before the crash; the test needs none yet", first)
	}
	orphans := h.ins.Crash()
	if len(orphans) != n {
		t.Fatalf("crash returned %d orphans, want %d", len(orphans), n)
	}
	h.ins.Restore()
	for _, r := range orphans {
		r.Restart()
		h.ins.EnqueuePrefill(r)
	}
	h.s.RunAll()

	dur := h.ins.CM().IterTime(perf.PrefillOnly(512))
	done := map[uint64]int{}
	for _, id := range h.completed {
		done[id]++
	}
	for i := uint64(1); i <= n; i++ {
		if done[i] != 1 || first[i] != 1 {
			t.Errorf("request %d: completed %d times, %d first tokens; want 1 and 1", i, done[i], first[i])
		}
		if got := firstAt[i].Sub(startAt[i]); got < dur*(1-1e-9) {
			t.Errorf("request %d: first token %v after its prefill start, want the pass latency %v", i, got, dur)
		}
	}
}

// TestCrashMidAssistStaleEventDoesNotFinishNewPass crashes a decode
// instance mid-assist and restores it, then starts a new assist that
// ends after the crashed assist's completion event. That stale event
// must neither finish the new pass early nor give the orphaned request a
// first token.
func TestCrashMidAssistStaleEventDoesNotFinishNewPass(t *testing.T) {
	setup := func() (*harness, map[uint64][]sim.Time) {
		first := map[uint64][]sim.Time{}
		h := newHarness(t, 1<<20, 0, func(c *Config) {
			c.AllowPrefill = false
			c.SBD = true
		}, func(h *harness, hk *Hooks) {
			hk.OnFirstToken = func(r *Req) { first[r.W.ID] = append(first[r.W.ID], h.s.Now()) }
		})
		return h, first
	}
	assist := func(h *harness, id uint64) *Req {
		a := req(id, 1024, 1)
		if err := h.kv.Allocate(a.KVID(), 1025); err != nil {
			t.Fatal(err)
		}
		h.ins.EnqueueAssist(a)
		return a
	}

	// Reference: one uncrashed assist of this size takes d.
	ref, refFirst := setup()
	assist(ref, 1)
	ref.s.RunAll()
	if len(refFirst[1]) != 1 {
		t.Fatalf("reference assist: first tokens %v", refFirst[1])
	}
	d := refFirst[1][0].Sub(0)

	h, first := setup()
	assist(h, 1)
	for !h.ins.AssistActive() {
		if !h.s.Step() {
			t.Fatal("assist never started")
		}
	}
	crashAt := h.s.Now()
	if orphans := h.ins.Crash(); len(orphans) != 1 {
		t.Fatalf("crash returned %d orphans, want the active assist", len(orphans))
	}
	h.ins.Restore()
	// The new assist starts halfway through the crashed one, so it ends
	// after the stale completion event at crashAt+d.
	startAt := crashAt.Add(d / 2)
	h.s.At(startAt, func() { assist(h, 2) })
	h.s.RunAll()

	if len(first[1]) != 0 {
		t.Errorf("orphaned assist got first tokens at %v", first[1])
	}
	if len(first[2]) != 1 {
		t.Fatalf("new assist: first tokens %v, want exactly one", first[2])
	}
	if got, want := first[2][0], startAt.Add(d); got < want*(1-1e-12) {
		t.Errorf("new assist finished at %v, before its full latency (%v)", got, want)
	}
	if h.ins.AssistActive() {
		t.Error("assist still active after drain")
	}
}
