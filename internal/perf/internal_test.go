package perf

import (
	"math"
	"testing"
	"testing/quick"

	"windserve/internal/gpu"
	"windserve/internal/model"
)

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {0.95, 0.95}, {0.99, 0.95}, {2, 0.95},
	}
	for _, c := range cases {
		if got := clamp01(c.in); got != c.want {
			t.Errorf("clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHybridTaxAppliesOnlyToMixedBatches(t *testing.T) {
	m := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	noTax := DefaultParams()
	noTax.HybridTax = 0
	m0 := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, noTax)

	pre := PrefillOnly(512)
	dec := DecodeOnly(8, 8*512)
	hybrid := Batch{Prefill: pre.Prefill, DecodeReqs: dec.DecodeReqs, DecodeSumCtx: dec.DecodeSumCtx}

	// Pure passes: identical with and without the tax.
	if m.IterTime(pre) != m0.IterTime(pre) {
		t.Error("hybrid tax leaked into pure prefill")
	}
	if m.IterTime(dec) != m0.IterTime(dec) {
		t.Error("hybrid tax leaked into pure decode")
	}
	// Mixed pass: taxed run strictly slower; the compute portion scales by
	// ~(1+tax) while the fixed CPU overhead does not.
	taxed, plain := m.IterTime(hybrid), m0.IterTime(hybrid)
	if taxed <= plain {
		t.Fatalf("hybrid tax not applied: %v vs %v", taxed, plain)
	}
	gotScale := (taxed - m.P.CPUOverhead).Seconds() / (plain - m0.P.CPUOverhead).Seconds()
	if math.Abs(gotScale-1.25) > 1e-9 {
		t.Errorf("hybrid scale = %v, want 1.25", gotScale)
	}
}

func TestPPCommAndLMHead(t *testing.T) {
	m := MustNew(model.OPT66B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
	if d := m.ppCommTime(0); d <= 0 {
		t.Error("PP comm should include fixed latency even for 0 tokens")
	}
	if m1, m2 := m.ppCommTime(100), m.ppCommTime(10000); m2 <= m1 {
		t.Error("PP comm should grow with tokens")
	}
	mTP := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	if mTP.ppCommTime(1000) != 0 {
		t.Error("PP-1 should have no stage sends")
	}
	if l1, l2 := m.lmHeadTime(1), m.lmHeadTime(100); l2 <= l1 {
		t.Error("LM head should scale with tokens")
	}
}

func TestAttnWeightFrac(t *testing.T) {
	// OPT (FFN=4H, MHA): attention holds 4H² of 12H² params = 1/3.
	if f := attnWeightFrac(model.OPT13B); math.Abs(f-1.0/3) > 1e-9 {
		t.Errorf("OPT attn weight fraction = %v, want 1/3", f)
	}
	// GQA shrinks the attention share.
	if f := attnWeightFrac(model.LLaMA270B); f >= 1.0/3 {
		t.Errorf("LLaMA2-70B attn fraction = %v, should be below OPT's", f)
	}
}

func TestSBDRatesDegenerate(t *testing.T) {
	m := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	rp, rd := m.SBDRates(Batch{}, DecodeOnly(4, 400))
	if rp != 1 || rd != 1 {
		t.Errorf("empty prefill rates = %v, %v", rp, rd)
	}
	rp, rd = m.SBDRates(PrefillOnly(100), Batch{})
	if rp != 1 || rd != 1 {
		t.Errorf("empty decode rates = %v, %v", rp, rd)
	}
}

// Property: SBD rates are in (0,1] and a bigger decode batch never speeds
// up the prefill stream.
func TestPropertySBDRates(t *testing.T) {
	m := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	f := func(n uint16, b1, b2 uint8) bool {
		pre := PrefillOnly(int(n%2048) + 1)
		s, l := int(b1%32)+1, int(b2%32)+1
		if s > l {
			s, l = l, s
		}
		rpS, _ := m.SBDRates(pre, DecodeOnly(s, s*512))
		rpL, _ := m.SBDRates(pre, DecodeOnly(l, l*512))
		okRange := rpS > 0 && rpS <= 1 && rpL > 0 && rpL <= 1
		return okRange && rpL <= rpS+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
