package perf

import (
	"math"
	"testing"
	"testing/quick"

	"windserve/internal/gpu"
	"windserve/internal/model"
	"windserve/internal/sim"
)

func opt13bTP2() *CostModel {
	return MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
}

func llama70b() *CostModel {
	return MustNew(model.LLaMA270B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
}

func TestPlacementValidate(t *testing.T) {
	if err := (Placement{TP: 2, PP: 1}).Validate(model.OPT13B); err != nil {
		t.Errorf("TP-2 on OPT-13B: %v", err)
	}
	if err := (Placement{TP: 0, PP: 1}).Validate(model.OPT13B); err == nil {
		t.Error("TP-0 should fail")
	}
	if err := (Placement{TP: 3, PP: 1}).Validate(model.OPT13B); err == nil {
		t.Error("TP-3 should fail (40 heads)")
	}
	if err := (Placement{TP: 2, PP: 3}).Validate(model.OPT13B); err == nil {
		t.Error("PP-3 should fail (40 layers)")
	}
	if (Placement{TP: 2, PP: 2}).GPUs() != 4 {
		t.Error("GPUs")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(model.OPT13B, gpu.A800, Placement{TP: 3, PP: 1}, gpu.NVLinkBridge, DefaultParams()); err == nil {
		t.Error("invalid placement accepted")
	}
	bad := DefaultParams()
	bad.ComputeEff = 0
	if _, err := New(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, bad); err == nil {
		t.Error("zero efficiency accepted")
	}
	badCfg := model.OPT13B
	badCfg.Layers = 0
	if _, err := New(badCfg, gpu.A800, Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, DefaultParams()); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestPrefillQuadraticDecodeLinear(t *testing.T) {
	m := opt13bTP2()
	// Prefill: superlinear growth in N (quadratic attention term), so
	// doubling N should more than double net compute time.
	p1 := m.PrefillTime(1024) - m.P.CPUOverhead
	p2 := m.PrefillTime(2048) - m.P.CPUOverhead
	if p2 < p1*2 {
		t.Errorf("prefill not superlinear: T(1024)=%v, T(2048)=%v", p1, p2)
	}
	// Decode: linear in ΣL after subtracting constant weight-read floor.
	d0 := m.DecodeTime(16, 0)
	d1 := m.DecodeTime(16, 16*1024)
	d2 := m.DecodeTime(16, 32*1024)
	grow1 := d1 - d0
	grow2 := d2 - d1
	if math.Abs(grow1.Seconds()-grow2.Seconds()) > 0.05*grow1.Seconds() {
		t.Errorf("decode growth not linear: +%v then +%v", grow1, grow2)
	}
}

func TestDecodeTimeNearPaperScale(t *testing.T) {
	// OPT-13B TP-2: one decode iteration at batch 16, avg ShareGPT ctx
	// (~866 tokens) should be O(10ms) — the scale the paper's 0.1 s TPOT
	// SLO (≈4× an iteration, §5.2) implies.
	m := opt13bTP2()
	d := m.DecodeTime(16, 16*866)
	if d < sim.Milliseconds(5) || d > sim.Milliseconds(40) {
		t.Errorf("OPT-13B decode iteration = %v, want 5-40ms", d)
	}
	// OPT-66B on TP-2,PP-2 should be a few× slower.
	m66 := MustNew(model.OPT66B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
	d66 := m66.DecodeTime(16, 16*866)
	if d66 < d {
		t.Errorf("OPT-66B iteration %v should exceed OPT-13B %v", d66, d)
	}
	if d66 > sim.Milliseconds(120) {
		t.Errorf("OPT-66B iteration = %v, implausibly slow", d66)
	}
}

func TestPrefillTimeNearPaperScale(t *testing.T) {
	// OPT-13B TP-2 prefill of the ShareGPT P90 prompt (1556 tokens)
	// must fit within the 0.25 s TTFT SLO (Table 4) with room to queue.
	m := opt13bTP2()
	p := m.PrefillTime(1556)
	if p > sim.Milliseconds(250) {
		t.Errorf("P90 prefill %v exceeds the whole TTFT SLO", p)
	}
	if p < sim.Milliseconds(20) {
		t.Errorf("P90 prefill %v implausibly fast", p)
	}
}

func TestHybridBatchInterference(t *testing.T) {
	// A decode iteration inside a hybrid batch with a 2048-token prefill
	// must be much slower than a decode-only iteration — the interference
	// that motivates the paper (§1).
	m := opt13bTP2()
	dAlone := m.DecodeTime(16, 16*1024)
	hybrid := m.IterTime(Batch{
		Prefill:      []PrefillSeg{{NewTokens: 2048}},
		DecodeReqs:   16,
		DecodeSumCtx: 16 * 1024,
	})
	if hybrid < dAlone*3 {
		t.Errorf("hybrid pass %v should be >=3x decode-only %v", hybrid, dAlone)
	}
}

func TestSBDMatchesFig8Shape(t *testing.T) {
	// Paper Fig. 8 (and §3.4 case study): with SBD, decode time stays
	// within a few percent of decode-only, and prefill pays a modest
	// penalty — far better than the hybrid pass for decode.
	for _, m := range []*CostModel{opt13bTP2(), llama70b()} {
		pre := PrefillOnly(2048)
		dec := DecodeOnly(16, 16*2048)
		tpIso := m.IterTime(pre)
		tdIso := m.IterTime(dec)
		tp := m.SBDPrefillTime(pre, dec)
		td := m.SBDDecodeTime(dec, pre)
		decSlow := td.Seconds() / tdIso.Seconds()
		preSlow := tp.Seconds() / tpIso.Seconds()
		if decSlow < 1.0 || decSlow > 1.25 {
			t.Errorf("%s: SBD decode slowdown = %.3f, want 1.00-1.25", m.Cfg.Name, decSlow)
		}
		if preSlow < 1.0 || preSlow > 1.35 {
			t.Errorf("%s: SBD prefill slowdown = %.3f, want 1.00-1.35", m.Cfg.Name, preSlow)
		}
		// SBD decode must beat the hybrid pass decode latency.
		hybrid := m.IterTime(Batch{Prefill: pre.Prefill, DecodeReqs: 16, DecodeSumCtx: 16 * 2048})
		if td >= hybrid {
			t.Errorf("%s: SBD decode %v not better than hybrid %v", m.Cfg.Name, td, hybrid)
		}
	}
}

func TestSBDLLaMA70BCaseStudy(t *testing.T) {
	// §3.4: LLaMA2-70B, 2048-token prefill. Paper: prefill-only ≈ 0.70 s
	// → 0.75 s under SBD (~1.07×); decode 0.33 → 0.34 s (~1.03×). Our
	// absolute times differ (their backend is less efficient) but the
	// ratios must land close.
	m := llama70b()
	pre := PrefillOnly(2048)
	dec := DecodeOnly(16, 16*2048)
	// Steady-state streams, as in the paper's measurement: decode
	// iterations run back-to-back for the prefill's whole duration.
	tp := m.SBDPrefillTime(pre, dec)
	td := m.SBDDecodeTime(dec, pre)
	preRatio := tp.Seconds() / m.IterTime(pre).Seconds()
	decRatio := td.Seconds() / m.IterTime(dec).Seconds()
	if preRatio < 1.02 || preRatio > 1.25 {
		t.Errorf("prefill SBD ratio = %.3f, want ~1.07", preRatio)
	}
	if decRatio < 1.01 || decRatio > 1.15 {
		t.Errorf("decode SBD ratio = %.3f, want ~1.03", decRatio)
	}
}

func TestSBDDegenerateBatches(t *testing.T) {
	m := opt13bTP2()
	pre := PrefillOnly(512)
	dec := DecodeOnly(8, 8*512)
	tp, td := m.SBDTimes(pre, Batch{})
	if tp != m.IterTime(pre) || td != 0 {
		t.Error("SBD with empty decode should degenerate to isolated prefill")
	}
	tp, td = m.SBDTimes(Batch{}, dec)
	if td != m.IterTime(dec) || tp != 0 {
		t.Error("SBD with empty prefill should degenerate to isolated decode")
	}
}

func TestChunkedSegmentCost(t *testing.T) {
	// A later chunk (with cached prefix) must cost more than the same
	// chunk from scratch (it attends over the prefix) but far less than
	// prefilling prefix+chunk from scratch.
	m := opt13bTP2()
	fromScratch := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 512}}})
	withPrefix := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 512, CtxBefore: 1536}}})
	whole := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 2048}}})
	if withPrefix <= fromScratch {
		t.Errorf("chunk with prefix %v should exceed from-scratch %v", withPrefix, fromScratch)
	}
	if withPrefix >= whole {
		t.Errorf("chunk with prefix %v should be below whole prefill %v", withPrefix, whole)
	}
}

func TestChunkedPrefillSumExceedsWhole(t *testing.T) {
	// Chunked prefill trades prefill latency for decode latency: the sum
	// of chunk times exceeds the single-pass time (paper §3.4 claims ~2×
	// at chunk=512 for a 2048 prompt once decode interference is added;
	// even alone, chunking must cost extra).
	m := opt13bTP2()
	whole := m.IterTime(PrefillOnly(2048))
	var chunked sim.Duration
	for done := 0; done < 2048; done += 512 {
		chunked += m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 512, CtxBefore: done}}})
	}
	if chunked <= whole {
		t.Errorf("chunked total %v should exceed whole %v", chunked, whole)
	}
}

func TestTPSpeedsUpPrefill(t *testing.T) {
	p1 := MustNew(model.OPT13B, gpu.A800, Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	p2 := opt13bTP2()
	t1 := p1.PrefillTime(2048)
	t2 := p2.PrefillTime(2048)
	if t2 >= t1 {
		t.Errorf("TP-2 prefill %v not faster than TP-1 %v", t2, t1)
	}
	// But not superlinear.
	if t2 < t1/2 {
		t.Errorf("TP-2 prefill %v superlinear vs %v", t2, t1)
	}
}

func TestPPAddsCommLatency(t *testing.T) {
	pp1 := MustNew(model.OPT66B, gpu.A800, Placement{TP: 4, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	pp2 := MustNew(model.OPT66B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
	// Same GPU count; TP-4 should give lower decode latency than TP-2,PP-2
	// (PP does not cut per-iteration latency).
	d1 := pp1.DecodeTime(16, 16*1024)
	d2 := pp2.DecodeTime(16, 16*1024)
	if d1 >= d2 {
		t.Errorf("TP-4 decode %v should beat TP-2,PP-2 %v", d1, d2)
	}
}

func TestKVCapacity(t *testing.T) {
	m := opt13bTP2()
	tokens := m.KVCapacityTokens(0.1)
	// 2×80 GB, ~26 GB weights, 90% usable → ~115 GB for KV at ~0.82 MB/token
	// → ~140k tokens. Sanity-range check.
	if tokens < 80_000 || tokens > 220_000 {
		t.Errorf("KV capacity = %d tokens, want ~140k", tokens)
	}
	// A placement that cannot even hold the weights has zero capacity.
	m70, err := New(model.LLaMA270B, gpu.A800, Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m70.KVCapacityTokens(0.1); got != 0 {
		t.Errorf("70B on one GPU KV capacity = %d, want 0", got)
	}
}

func TestBatchHelpers(t *testing.T) {
	b := Batch{Prefill: []PrefillSeg{{NewTokens: 100}, {NewTokens: 50, CtxBefore: 10}}, DecodeReqs: 4, DecodeSumCtx: 400}
	if b.PrefillTokens() != 150 {
		t.Errorf("PrefillTokens = %d", b.PrefillTokens())
	}
	if b.Tokens() != 154 {
		t.Errorf("Tokens = %d", b.Tokens())
	}
	if b.Empty() {
		t.Error("Empty")
	}
	if !(Batch{}).Empty() {
		t.Error("zero batch should be empty")
	}
	if (Batch{}).Tokens() != 0 {
		t.Error("zero batch tokens")
	}
	if m := opt13bTP2(); m.IterTime(Batch{}) != 0 {
		t.Error("empty batch should take zero time")
	}
}

// Property: iteration time is monotone under adding work.
func TestPropertyIterTimeMonotone(t *testing.T) {
	m := opt13bTP2()
	f := func(n, b, extra uint16) bool {
		nn := int(n%2048) + 1
		bb := int(b%64) + 1
		ctx := bb * (int(extra%1024) + 1)
		base := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: nn}}, DecodeReqs: bb, DecodeSumCtx: ctx})
		bigger := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: nn + 64}}, DecodeReqs: bb + 1, DecodeSumCtx: ctx + 64})
		return bigger >= base && base > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SBD never makes either stream faster than isolated execution,
// and the extra delay each stream suffers is bounded by the overlap with
// the other stream (each stream always progresses at >= ~5% speed, so the
// overlap window is at most ~21x the other stream's isolated time).
func TestPropertySBDBounded(t *testing.T) {
	m := opt13bTP2()
	f := func(n, b uint16) bool {
		pre := PrefillOnly(int(n%2048) + 1)
		bb := int(b%32) + 1
		dec := DecodeOnly(bb, bb*512)
		tp, td := m.SBDTimes(pre, dec)
		tpIso, tdIso := m.IterTime(pre), m.IterTime(dec)
		const maxStall = 21
		return tp >= tpIso && td >= tdIso &&
			tp <= tpIso+maxStall*tdIso && td <= tdIso+maxStall*tpIso
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under the overlap model a short prefill perturbs a long decode
// pass by at most the prefill's own (contended) duration.
func TestSBDShortPrefillSmallPenalty(t *testing.T) {
	m := opt13bTP2()
	pre := PrefillOnly(2)
	dec := DecodeOnly(15, 15*512)
	tp, td := m.SBDTimes(pre, dec)
	tdIso := m.IterTime(dec)
	if penalty := td - tdIso; penalty > tp {
		t.Errorf("decode penalty %v exceeds prefill overlap %v", penalty, tp)
	}
	if td > tdIso*3 {
		t.Errorf("tiny prefill inflated decode %v vs iso %v", td, tdIso)
	}
}

func TestWeightBytesPerGPU(t *testing.T) {
	m := llama70b()
	perGPU := m.WeightBytesPerGPU()
	if total := perGPU * 4; math.Abs(total-m.Cfg.WeightBytes()) > 1 {
		t.Error("weights should divide evenly across 4 GPUs")
	}
	// 70B FP16 = ~140 GB / 4 = ~35 GB per GPU.
	if gb := perGPU / 1e9; gb < 30 || gb > 40 {
		t.Errorf("per-GPU weights = %.1f GB, want ~35", gb)
	}
}

func TestPlacementString(t *testing.T) {
	if s := (Placement{TP: 2, PP: 1}).String(); s != "TP-2,PP-1" {
		t.Errorf("String = %q", s)
	}
}

// batchShapes is a mix of the shapes engines actually submit: decode-only
// at varying sizes, whole-prompt prefills, chunked-prefill segments, and
// hybrid passes, one with two prefill segments.
func batchShapes() []Batch {
	return []Batch{
		DecodeOnly(1, 512),
		DecodeOnly(16, 16*2048),
		DecodeOnly(64, 64*900),
		PrefillOnly(128),
		PrefillOnly(2048),
		{Prefill: []PrefillSeg{{NewTokens: 512, CtxBefore: 1024}}},
		{Prefill: []PrefillSeg{{NewTokens: 256}}, DecodeReqs: 12, DecodeSumCtx: 12 * 700},
		{Prefill: []PrefillSeg{{NewTokens: 128}, {NewTokens: 384, CtxBefore: 512}}, DecodeReqs: 4, DecodeSumCtx: 3000},
	}
}

// TestCostModelGolden pins the roofline to the bit: IterTime, the
// BatchCost FLOPs/IO totals, and the SBD rate product against a 512-token
// prefill stream, for every shape on two placements. The values are the
// IEEE-754 bits the model has always produced, so constants New derives
// once must enter the same float expressions in the same order.
func TestCostModelGolden(t *testing.T) {
	golden := [][4]uint64{
		{0x3f8a9909f9cece3b, 0x4217d40000000000, 0x4217d46400000000, 0x3fe914eb095f77fb},
		{0x3f9532be9cfa519c, 0x4259000000000000, 0x42283b2000000000, 0x3fe8331de4fcd424},
		{0x3f9b8186fd176a42, 0x42781fc800000000, 0x4230dec000000000, 0x3fe698ef2ccfa762},
		{0x3f901e7917cfe85f, 0x4287890000000000, 0x4217a20000000000, 0x3fe0ce3a47b36b70},
		{0x3fc6affd5f8d732a, 0x42c9000000000000, 0x421a900000000001, 0x3fe0ce3a47b36b70},
		{0x3fa8847a2f68d758, 0x42a89c0000000000, 0x4218380000000001, 0x3fe0ce3a47b36b70},
		{0x3fa0b8c8b2cea4ff, 0x4298c1a8a0000000, 0x421e415000000000, 0x3fe0ce3a47b36b70},
		{0x3fadb0d3ff3687ca, 0x42a82984f8000000, 0x421a838000000000, 0x3fe0ce3a47b36b70},
		{0x3fa7f18e10b44868, 0x423fea0000000000, 0x423fea5000000000, 0x3fe91bdc911ffd64},
		{0x3fa9a122afd28018, 0x4280040000000000, 0x4241328000000000, 0x3fe778375e5750b6},
		{0x3fab3aecfd9d8cb2, 0x429ff19400000000, 0x42422c8000000000, 0x3fe3a74074d8d39e},
		{0x3faedc1859db78aa, 0x42aff40000000000, 0x4240040000000000, 0x3fe0d2e16d53022d},
		{0x3fec5cca0e54c41e, 0x42f0900000000000, 0x4241300000000000, 0x3fe0d2e16d53022d},
		{0x3fcccc3f5ac01f2a, 0x42d0680000000000, 0x4240400000000000, 0x3fe0d2e16d53022d},
		{0x3fc2d78e2bcb9c0c, 0x42c0c39208000000, 0x42406be800000000, 0x3fe0d2e16d53022d},
		{0x3fd1ce935e509a08, 0x42d046eea6000000, 0x42405dec00000000, 0x3fe0d2e16d53022d},
	}
	i := 0
	for _, m := range []*CostModel{opt13bTP2(), llama70b()} {
		for _, b := range batchShapes() {
			c := m.BatchCost(b)
			rp, rd := m.SBDRates(PrefillOnly(512), b)
			got := [4]uint64{math.Float64bits(float64(m.IterTime(b))),
				math.Float64bits(c.FLOPs()), math.Float64bits(c.IOBytes()), math.Float64bits(rp * rd)}
			if got != golden[i] {
				t.Errorf("%s %+v: bits %#x, want %#x", m.Cfg.Name, b, got, golden[i])
			}
			i++
		}
	}
}

// BenchmarkIterTime prices recurring decode shapes through the roofline.
func BenchmarkIterTime(b *testing.B) {
	m := opt13bTP2()
	shapes := make([]Batch, 32)
	for i := range shapes {
		shapes[i] = DecodeOnly(8+i%4, (8+i%4)*(600+i*13))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.IterTime(shapes[i%len(shapes)])
	}
}
