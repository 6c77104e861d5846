package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuiltinConfigsValid(t *testing.T) {
	for _, c := range []Config{OPT13B, OPT30B, OPT66B, LLaMA213B, LLaMA270B} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestParameterCounts(t *testing.T) {
	// Total parameters should be within ~10% of the nameplate size.
	cases := []struct {
		cfg  Config
		want float64
	}{
		{OPT13B, 13e9},
		{OPT30B, 30e9},
		{OPT66B, 66e9},
		{LLaMA213B, 13e9},
		{LLaMA270B, 70e9},
	}
	for _, c := range cases {
		got := c.cfg.TotalParams()
		if ratio := got / c.want; ratio < 0.88 || ratio > 1.12 {
			t.Errorf("%s params = %.2fB, want ~%.0fB", c.cfg.Name, got/1e9, c.want/1e9)
		}
	}
}

func TestAttentionKind(t *testing.T) {
	if OPT13B.Attention() != MHA {
		t.Error("OPT-13B should be MHA")
	}
	if LLaMA270B.Attention() != GQA {
		t.Error("LLaMA2-70B should be GQA")
	}
	if MHA.String() != "MHA" || GQA.String() != "GQA" {
		t.Error("AttentionKind.String")
	}
}

func TestKVBytesMatchesPaperExample(t *testing.T) {
	// Paper §2.2: OPT-13B, 2048 tokens → ~1.5 GB of KV cache.
	gb := OPT13B.KVBytesPerToken() * 2048 / 1e9
	if gb < 1.4 || gb > 1.8 {
		t.Errorf("OPT-13B 2048-token KV = %.2f GB, want ~1.5-1.7 GB", gb)
	}
}

func TestGQAShrinksKV(t *testing.T) {
	// LLaMA2-70B has 8 KV heads vs 64 query heads → KV cache 8× smaller
	// than an MHA model of the same hidden size would have.
	mha := LLaMA270B
	mha.KVHeads = mha.Heads
	if ratio := mha.KVBytesPerToken() / LLaMA270B.KVBytesPerToken(); math.Abs(ratio-8) > 1e-9 {
		t.Errorf("GQA KV reduction = %.1f×, want 8×", ratio)
	}
}

func TestTable1PrefillFormulas(t *testing.T) {
	// For OPT (MHA, FFN=4H) Table 1 gives, per layer:
	//   Attn FLOPs = 8NH² + 4N²H, FFN FLOPs = 16NH², FFN IO = 16H².
	c := OPT13B
	h := float64(c.Hidden)
	for _, n := range []int{1, 128, 2048} {
		nf := float64(n)
		lc := c.PrefillLayerCost(n)
		wantAttn := 8*nf*h*h + 4*nf*nf*h
		if math.Abs(lc.AttnFLOPs-wantAttn)/wantAttn > 1e-12 {
			t.Errorf("n=%d attn FLOPs = %g, want %g", n, lc.AttnFLOPs, wantAttn)
		}
		wantFFN := 16 * nf * h * h
		if math.Abs(lc.FFNFLOPs-wantFFN)/wantFFN > 1e-12 {
			t.Errorf("n=%d ffn FLOPs = %g, want %g", n, lc.FFNFLOPs, wantFFN)
		}
		if want := 16 * h * h; math.Abs(lc.FFNIOBytes-want)/want > 1e-12 {
			t.Errorf("n=%d ffn IO = %g, want %g", n, lc.FFNIOBytes, want)
		}
	}
}

func TestTable1DecodeFormulas(t *testing.T) {
	// For OPT Table 1 gives, per layer:
	//   Attn FLOPs = 8BH² + 4·ΣL·H, FFN FLOPs = 16BH²,
	//   total IO = 24H² + 4·ΣL·H (weights + KV reads).
	c := OPT13B
	h := float64(c.Hidden)
	b, sum := 16, 16*1024
	lc := c.DecodeLayerCost(b, sum)
	bf, lf := float64(b), float64(sum)
	if want := 8*bf*h*h + 4*lf*h; math.Abs(lc.AttnFLOPs-want)/want > 1e-12 {
		t.Errorf("attn FLOPs = %g, want %g", lc.AttnFLOPs, want)
	}
	if want := 16 * bf * h * h; math.Abs(lc.FFNFLOPs-want)/want > 1e-12 {
		t.Errorf("ffn FLOPs = %g, want %g", lc.FFNFLOPs, want)
	}
	if want := 24*h*h + 4*lf*h; math.Abs(lc.IOBytes()-want)/want > 1e-12 {
		t.Errorf("total IO = %g, want %g", lc.IOBytes(), want)
	}
}

func TestDecodeIsIOBoundPrefillComputeBound(t *testing.T) {
	// Using A800-ish peak numbers (312 TFLOPS, 2039 GB/s): prefill
	// arithmetic intensity must exceed the machine balance point, decode
	// must fall below it.
	balance := 312e12 / 2039e9 // FLOPs per byte ≈ 153
	c := OPT13B
	p := c.PrefillLayerCost(512)
	if ai := p.FLOPs() / p.IOBytes(); ai < balance {
		t.Errorf("prefill arithmetic intensity %.0f < balance %.0f; should be compute-bound", ai, balance)
	}
	d := c.DecodeLayerCost(16, 16*1024)
	if ai := d.FLOPs() / d.IOBytes(); ai > balance {
		t.Errorf("decode arithmetic intensity %.0f > balance %.0f; should be IO-bound", ai, balance)
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("OPT-66B")
	if err != nil || c.Layers != 64 {
		t.Fatalf("ByName(OPT-66B) = %v, %v", c, err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "x", Layers: 0, Hidden: 4, Heads: 2, KVHeads: 2, FFNDim: 8, MaxContext: 10},
		{Name: "x", Layers: 2, Hidden: 0, Heads: 2, KVHeads: 2, FFNDim: 8, MaxContext: 10},
		{Name: "x", Layers: 2, Hidden: 5, Heads: 2, KVHeads: 2, FFNDim: 8, MaxContext: 10},  // heads don't divide
		{Name: "x", Layers: 2, Hidden: 4, Heads: 2, KVHeads: 3, FFNDim: 8, MaxContext: 10},  // kv > heads
		{Name: "x", Layers: 2, Hidden: 12, Heads: 4, KVHeads: 3, FFNDim: 8, MaxContext: 10}, // heads%kv != 0
		{Name: "x", Layers: 2, Hidden: 4, Heads: 2, KVHeads: 2, FFNDim: 0, MaxContext: 10},  // ffn
		{Name: "x", Layers: 2, Hidden: 4, Heads: 2, KVHeads: 2, FFNDim: 8, MaxContext: 0},   // ctx
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestHeadAndKVDims(t *testing.T) {
	if OPT13B.HeadDim() != 128 {
		t.Errorf("OPT-13B head dim = %d", OPT13B.HeadDim())
	}
	if LLaMA270B.HeadDim() != 128 {
		t.Errorf("LLaMA2-70B head dim = %d", LLaMA270B.HeadDim())
	}
	if LLaMA270B.KVDim() != 1024 {
		t.Errorf("LLaMA2-70B KV dim = %d, want 1024", LLaMA270B.KVDim())
	}
	if OPT13B.KVDim() != OPT13B.Hidden {
		t.Error("MHA KVDim should equal Hidden")
	}
}

func TestStringContainsEssentials(t *testing.T) {
	s := LLaMA270B.String()
	for _, want := range []string{"LLaMA2-70B", "GQA", "L=80"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// Property: costs are monotone in their inputs and non-negative.
func TestPropertyCostMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		n1, n2 := int(a%4096)+1, int(b%4096)+1
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		c := OPT13B
		p1, p2 := c.PrefillLayerCost(n1), c.PrefillLayerCost(n2)
		if p1.FLOPs() > p2.FLOPs() || p1.FLOPs() <= 0 {
			return false
		}
		d1 := c.DecodeLayerCost(1, n1)
		d2 := c.DecodeLayerCost(1, n2)
		return d1.IOBytes() <= d2.IOBytes() && d1.IOBytes() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decode FLOPs of a batch of b equals b× the projections of a
// single request plus the shared ΣL attention term (linearity check).
func TestPropertyDecodeLinearInBatch(t *testing.T) {
	f := func(a uint8) bool {
		b := int(a%32) + 1
		c := OPT13B
		withB := c.DecodeLayerCost(b, 0)
		with1 := c.DecodeLayerCost(1, 0)
		return math.Abs(withB.FLOPs()-float64(b)*with1.FLOPs()) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
