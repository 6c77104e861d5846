// Package perf turns the analytical per-layer costs of internal/model into
// wall-clock iteration times on a simulated GPU: a roofline model (an
// iteration is compute-bound or IO-bound per layer, whichever is worse)
// plus tensor-parallel collective costs, pipeline-parallel staging, kernel
// launch and host-side scheduling overheads.
//
// The same model plays two roles, mirroring the paper:
//
//   - It is the simulated hardware: internal/engine asks it how long each
//     batch takes and schedules the completion event.
//   - It is what the Global Scheduler's Profiler profiles: the Profiler
//     samples it at a few batch shapes and fits the paper's eqs. (1)–(2)
//     by regression, then predicts from the fit (so prediction error is
//     real, as in the paper).
//
// It also implements the stream-based disaggregation (SBD) contention
// model: a compute-bound prefill stream and an IO-bound decode stream
// sharing one GPU each lose a slice of the resource the other one uses,
// calibrated against the paper's Fig. 8.
package perf

import (
	"fmt"
	"math"

	"windserve/internal/gpu"
	"windserve/internal/model"
	"windserve/internal/sim"
)

// Placement is the parallelism strategy of one serving instance, written
// [TP-t, PP-p] in the paper.
type Placement struct {
	TP int // tensor-parallel degree
	PP int // pipeline-parallel degree
}

// GPUs returns the number of devices the placement occupies.
func (p Placement) GPUs() int { return p.TP * p.PP }

// Validate checks the placement against a model config.
func (p Placement) Validate(cfg model.Config) error {
	if p.TP < 1 || p.PP < 1 {
		return fmt.Errorf("perf: placement %v must have TP,PP >= 1", p)
	}
	if cfg.Heads%p.TP != 0 {
		return fmt.Errorf("perf: TP-%d does not divide %d heads", p.TP, cfg.Heads)
	}
	if cfg.Layers%p.PP != 0 {
		return fmt.Errorf("perf: PP-%d does not divide %d layers", p.PP, cfg.Layers)
	}
	return nil
}

func (p Placement) String() string { return fmt.Sprintf("TP-%d,PP-%d", p.TP, p.PP) }

// Params are the calibration constants of the simulated backend.
type Params struct {
	// ComputeEff is the fraction of peak tensor FLOPS large GEMMs achieve.
	ComputeEff float64
	// BWEff is the fraction of peak HBM bandwidth streaming kernels achieve.
	BWEff float64
	// KernelOverhead is fixed launch/dispatch time per transformer layer.
	KernelOverhead sim.Duration
	// TPCommLatency is the fixed latency of one tensor-parallel allreduce.
	TPCommLatency sim.Duration
	// CPUOverhead is per-iteration host-side scheduling cost (batching,
	// tokenization bookkeeping, Python driver in the original system).
	CPUOverhead sim.Duration
	// SBDComputeShare scales how much of the decode stream's compute
	// demand is stolen from the concurrent prefill stream (0..1).
	SBDComputeShare float64
	// SBDBWShare scales how much of the prefill stream's HBM traffic is
	// stolen from the concurrent decode stream (0..1).
	SBDBWShare float64
	// SBDTax is the fixed relative slowdown both streams pay for
	// concurrent execution (scheduler pressure, cache pollution).
	SBDTax float64
	// HybridTax is the relative overhead of a single pass that mixes
	// prefill segments and decode tokens. Pre-POD-Attention kernels
	// serialize the two attention shapes and schedule them poorly; the
	// POD-Attention paper reports 20-30% headroom on exactly these
	// batches, which is the cost vLLM-style chunked prefill and hybrid
	// batching pay here.
	HybridTax float64
}

// DefaultParams returns the calibration used for all paper experiments.
// ComputeEff/BWEff are typical of FlashAttention-2-era serving stacks;
// the SBD constants reproduce the paper's Fig. 8 ratios (decode inflates
// ~3–8%, prefill ~7–15% when co-scheduled in separate streams).
func DefaultParams() Params {
	return Params{
		ComputeEff:      0.55,
		BWEff:           0.85,
		KernelOverhead:  sim.Microseconds(20),
		TPCommLatency:   sim.Microseconds(10),
		CPUOverhead:     sim.Milliseconds(4),
		SBDComputeShare: 0.5,
		SBDBWShare:      1.0,
		SBDTax:          0.03,
		HybridTax:       0.25,
	}
}

// PrefillSeg is one sequence's contribution of new tokens to a forward
// pass: NewTokens fresh tokens attending over CtxBefore already-cached
// tokens (CtxBefore = 0 for a whole-prompt prefill; > 0 for later chunks
// of a chunked prefill).
type PrefillSeg struct {
	NewTokens int
	CtxBefore int
}

// Batch is the shape of one forward pass.
type Batch struct {
	// Prefill segments in this pass (empty for decode-only).
	Prefill []PrefillSeg
	// DecodeReqs is the number of decode requests (one token each).
	DecodeReqs int
	// DecodeSumCtx is ΣL, the total context length over decode requests.
	DecodeSumCtx int
}

// PrefillTokens returns the total number of new prefill tokens in the pass.
func (b Batch) PrefillTokens() int {
	n := 0
	for _, s := range b.Prefill {
		n += s.NewTokens
	}
	return n
}

// Tokens returns the total new tokens (prefill + decode) in the pass —
// the activation width for TP collectives.
func (b Batch) Tokens() int { return b.PrefillTokens() + b.DecodeReqs }

// Empty reports whether the batch has no work.
func (b Batch) Empty() bool { return len(b.Prefill) == 0 && b.DecodeReqs == 0 }

// PrefillOnly builds a batch with a single from-scratch prefill.
func PrefillOnly(n int) Batch {
	return Batch{Prefill: []PrefillSeg{{NewTokens: n}}}
}

// DecodeOnly builds a decode-only batch.
func DecodeOnly(reqs, sumCtx int) Batch {
	return Batch{DecodeReqs: reqs, DecodeSumCtx: sumCtx}
}

// CostModel computes iteration times for one (model, GPU, placement).
// New derives per-layer constants from Cfg, so build a new model rather
// than editing Cfg in place.
type CostModel struct {
	Cfg    model.Config
	GPU    gpu.Spec
	Place  Placement
	TPLink gpu.LinkSpec // link used for TP collectives and PP sends
	P      Params

	// Derived from Cfg by New: hidden size, KV/hidden width ratio, and
	// one layer's attention and FFN weight bytes.
	h, kvRatio, wAttn, wFFN float64
}

// New builds a cost model, validating the placement.
func New(cfg model.Config, g gpu.Spec, place Placement, tpLink gpu.LinkSpec, p Params) (*CostModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := place.Validate(cfg); err != nil {
		return nil, err
	}
	if p.ComputeEff <= 0 || p.BWEff <= 0 {
		return nil, fmt.Errorf("perf: efficiencies must be positive, got %+v", p)
	}
	h, wb, frac := float64(cfg.Hidden), cfg.WeightBytesPerLayer(), attnWeightFrac(cfg)
	return &CostModel{Cfg: cfg, GPU: g, Place: place, TPLink: tpLink, P: p,
		h: h, kvRatio: float64(cfg.KVDim()) / h, wAttn: wb * frac, wFFN: wb * (1 - frac)}, nil
}

// MustNew is New that panics on error; for tests and static tables.
func MustNew(cfg model.Config, g gpu.Spec, place Placement, tpLink gpu.LinkSpec, p Params) *CostModel {
	m, err := New(cfg, g, place, tpLink, p)
	if err != nil {
		panic(err)
	}
	return m
}

// layerCost accumulates the Table 1 FLOPs/IO of one layer for the batch.
func (m *CostModel) layerCost(b Batch) model.LayerCost {
	var total model.LayerCost
	h, kvRatio := m.h, m.kvRatio
	for _, s := range b.Prefill {
		lc := m.Cfg.PrefillLayerCost(s.NewTokens)
		if s.CtxBefore > 0 {
			// A chunk attends over its prefix too: score/value matmuls are
			// new×(ctx+new) rather than new×new, and the cached prefix KV
			// must be re-read from HBM.
			extra := 4 * float64(s.NewTokens) * float64(s.CtxBefore) * h
			lc.AttnFLOPs += extra
			lc.AttnIOBytes += 4 * float64(s.CtxBefore) * h * kvRatio
		}
		total.AttnFLOPs += lc.AttnFLOPs
		total.FFNFLOPs += lc.FFNFLOPs
		// Weight reads are shared across the whole pass; add them once
		// below rather than per segment.
	}
	if b.DecodeReqs > 0 {
		lc := m.Cfg.DecodeLayerCost(b.DecodeReqs, b.DecodeSumCtx)
		total.AttnFLOPs += lc.AttnFLOPs
		total.FFNFLOPs += lc.FFNFLOPs
		total.AttnIOBytes += lc.AttnIOBytes - m.wAttn
		total.FFNIOBytes += lc.FFNIOBytes - m.wFFN
	}
	// One weight read per layer per pass, however many segments share it.
	if !b.Empty() {
		total.AttnIOBytes += m.wAttn
		total.FFNIOBytes += m.wFFN
		// Activation traffic: read+write of token activations.
		act := 4 * float64(b.Tokens()) * h
		total.AttnIOBytes += act
		total.FFNIOBytes += act
	}
	return total
}

func attnWeightFrac(c model.Config) float64 {
	attn := 2*float64(c.Hidden)*float64(c.Hidden) + 2*float64(c.Hidden)*float64(c.KVDim())
	return attn / c.ParamsPerLayer()
}

// layerTime applies the roofline to one layer's cost, dividing work across
// TP ranks, and adds launch overhead and TP collective time.
func (m *CostModel) layerTime(lc model.LayerCost, tokens int) sim.Duration {
	tp := float64(m.Place.TP)
	compute := lc.FLOPs() / tp / (m.GPU.FLOPS() * m.P.ComputeEff)
	io := lc.IOBytes() / tp / (m.GPU.BandwidthBytes() * m.P.BWEff)
	t := sim.Seconds(math.Max(compute, io)) + m.P.KernelOverhead
	if m.Place.TP > 1 {
		// Two allreduces per layer (attention output, FFN output), ring
		// algorithm: 2(t-1)/t of the activation bytes cross the link.
		bytes := float64(tokens) * float64(m.Cfg.Hidden) * model.BytesFP16
		ring := 2 * (tp - 1) / tp * bytes / m.TPLink.BytesPerSecond()
		t += 2 * (sim.Seconds(ring) + m.P.TPCommLatency)
	}
	return t
}

// IterTime returns the latency of one forward pass of the batch, executed
// as a single (possibly hybrid) kernel sequence — the paper's "Regular"
// batching. Decode requests in a hybrid batch observe this full latency,
// which is exactly the prefill-decode interference the paper measures.
func (m *CostModel) IterTime(b Batch) sim.Duration {
	if b.Empty() {
		return 0
	}
	lc := m.layerCost(b)
	lt := m.layerTime(lc, b.Tokens())
	total := lt * sim.Duration(m.Cfg.Layers)
	total += m.ppCommTime(b.Tokens())
	total += m.lmHeadTime(b.Tokens())
	if len(b.Prefill) > 0 && b.DecodeReqs > 0 {
		total *= sim.Duration(1 + m.P.HybridTax)
	}
	total += m.P.CPUOverhead
	return total
}

// ppCommTime is the inter-stage activation send cost for pipeline
// parallelism (PP-1 hops of token activations).
func (m *CostModel) ppCommTime(tokens int) sim.Duration {
	if m.Place.PP <= 1 {
		return 0
	}
	bytes := float64(tokens) * float64(m.Cfg.Hidden) * model.BytesFP16
	per := sim.Seconds(bytes/m.TPLink.BytesPerSecond()) + sim.Microseconds(m.TPLink.LatencyUS)
	return per * sim.Duration(m.Place.PP-1)
}

// lmHeadTime is the final-projection + sampling cost.
func (m *CostModel) lmHeadTime(tokens int) sim.Duration {
	flops := 2 * float64(tokens) * float64(m.Cfg.Hidden) * float64(m.Cfg.VocabSize)
	return sim.Seconds(flops / float64(m.Place.TP) / (m.GPU.FLOPS() * m.P.ComputeEff))
}

// PrefillTime is the latency of prefilling n prompt tokens in isolation.
func (m *CostModel) PrefillTime(n int) sim.Duration { return m.IterTime(PrefillOnly(n)) }

// DecodeTime is the latency of one decode iteration for b requests with
// total context sumCtx, in isolation.
func (m *CostModel) DecodeTime(b, sumCtx int) sim.Duration {
	return m.IterTime(DecodeOnly(b, sumCtx))
}

// SBDRates returns the progress rates (fraction of isolated speed, 0..1)
// of the prefill and decode streams while both are in flight.
//
// The hardware arbitrates HBM and SM resources between streams roughly
// demand-proportionally, so a stream whose bottleneck resource the other
// stream also uses slows down by (1 + otherDemand), bounded near 2× even
// when both streams want the same resource — it never starves. The
// SBD*Share knobs scale the stolen demand and SBDTax adds the fixed
// concurrency overhead; defaults reproduce the paper's Fig. 8 ratios.
func (m *CostModel) SBDRates(prefill Batch, decode Batch) (rp, rd float64) {
	if prefill.Empty() || decode.Empty() {
		return 1, 1
	}
	plc := m.layerCost(prefill)
	dlc := m.layerCost(decode)
	tpf := float64(m.Place.TP)
	// Fraction of the GPU's bandwidth the prefill stream uses while running.
	pIO := plc.IOBytes() / tpf / (m.GPU.BandwidthBytes() * m.P.BWEff)
	pTotal := math.Max(pIO, plc.FLOPs()/tpf/(m.GPU.FLOPS()*m.P.ComputeEff))
	prefillBWDemand := clamp01(pIO / pTotal * m.P.SBDBWShare)
	// Fraction of the GPU's compute the decode stream uses while running.
	dCompute := dlc.FLOPs() / tpf / (m.GPU.FLOPS() * m.P.ComputeEff)
	dTotal := math.Max(dCompute, dlc.IOBytes()/tpf/(m.GPU.BandwidthBytes()*m.P.BWEff))
	decodeComputeDemand := clamp01(dCompute / dTotal * m.P.SBDComputeShare)
	rp = 1 / ((1 + decodeComputeDemand) * (1 + m.P.SBDTax))
	rd = 1 / ((1 + prefillBWDemand) * (1 + m.P.SBDTax))
	return rp, rd
}

// SBDDecodeTime returns the duration of one decode pass while a prefill
// stream runs continuously alongside it (the engine's steady-state case,
// and the setup of the paper's Fig. 8).
func (m *CostModel) SBDDecodeTime(decode Batch, prefill Batch) sim.Duration {
	td := m.IterTime(decode)
	if prefill.Empty() {
		return td
	}
	_, rd := m.SBDRates(prefill, decode)
	return sim.Duration(td.Seconds() / rd)
}

// SBDPrefillTime returns the duration of a prefill pass while decode
// iterations run continuously alongside it in the other stream.
func (m *CostModel) SBDPrefillTime(prefill Batch, decode Batch) sim.Duration {
	tp := m.IterTime(prefill)
	if decode.Empty() {
		return tp
	}
	rp, _ := m.SBDRates(prefill, decode)
	return sim.Duration(tp.Seconds() / rp)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 0.95 { // never let one stream fully starve the other
		return 0.95
	}
	return x
}

// BatchCost returns the whole-model FLOPs/IO accounting of one pass of the
// batch — used by the engines to report tensor-core and memory-bandwidth
// utilization (paper Fig. 2).
func (m *CostModel) BatchCost(b Batch) model.LayerCost {
	lc := m.layerCost(b)
	l := float64(m.Cfg.Layers)
	return model.LayerCost{
		AttnFLOPs:   lc.AttnFLOPs * l,
		FFNFLOPs:    lc.FFNFLOPs * l,
		AttnIOBytes: lc.AttnIOBytes * l,
		FFNIOBytes:  lc.FFNIOBytes * l,
	}
}

// WeightBytesPerGPU returns the model weight bytes resident on each GPU of
// the placement.
func (m *CostModel) WeightBytesPerGPU() float64 {
	return m.Cfg.WeightBytes() / float64(m.Place.GPUs())
}

// KVCapacityTokens returns how many tokens of KV cache the placement can
// hold, given the per-GPU memory budget left after weights and the
// activation reservation.
//
// reserveFrac is the fraction of device memory kept free for activations
// and fragmentation slack (0.1 is typical).
func (m *CostModel) KVCapacityTokens(reserveFrac float64) int {
	perGPU := m.GPU.MemoryBytes()*(1-reserveFrac) - m.WeightBytesPerGPU()
	if perGPU <= 0 {
		return 0
	}
	total := perGPU * float64(m.Place.GPUs())
	return int(total / m.Cfg.KVBytesPerToken())
}
