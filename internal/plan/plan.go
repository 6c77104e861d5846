// Package plan implements simulation-based placement search: the method
// DistServe uses — and WindServe adopts (paper §5.1, "Placement
// Strategies") — to choose each instance's tensor/pipeline parallelism.
// Candidate placements are enumerated over a GPU budget, each is evaluated
// by simulating a calibration workload, and candidates are ranked by SLO
// attainment with per-GPU goodput as the tiebreaker.
//
// This is also the tool behind the paper's Table 3: running the search
// over the paper's scenarios reproduces its placement choices.
package plan

import (
	"fmt"
	"sort"

	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/serve"
	"windserve/internal/workload"
)

// Candidate is one prefill/decode placement pair.
type Candidate struct {
	Prefill perf.Placement
	Decode  perf.Placement
}

// GPUs returns the candidate's total device count.
func (c Candidate) GPUs() int { return c.Prefill.GPUs() + c.Decode.GPUs() }

func (c Candidate) String() string {
	return fmt.Sprintf("[%s | %s]", c.Prefill, c.Decode)
}

// Evaluation is one candidate's simulated outcome.
type Evaluation struct {
	Candidate Candidate
	// Attainment is the fraction of requests meeting both SLOs.
	Attainment float64
	// GoodputPerGPU is SLO-satisfying requests per second per GPU — the
	// goodput metric DistServe optimizes.
	GoodputPerGPU float64
	// TTFTP50Ms and TPOTP99Ms summarize the latency profile.
	TTFTP50Ms, TPOTP99Ms float64
	// Err notes candidates that could not run (e.g. weights don't fit).
	Err error
}

// Options tunes the search.
type Options struct {
	// System evaluates candidates under this system ("windserve" or
	// "distserve"); default "distserve", matching the paper's planner.
	System string
	// Requests per candidate simulation.
	Requests int
	Seed     int64
	// MaxGPUsPerInstance bounds each instance (placements beyond TP-4 ×
	// PP-2 are rarely sensible on an 8-GPU node).
	MaxGPUsPerInstance int
}

func (o Options) withDefaults() Options {
	if o.System == "" {
		o.System = "distserve"
	}
	if o.Requests <= 0 {
		o.Requests = 300
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.MaxGPUsPerInstance <= 0 {
		o.MaxGPUsPerInstance = 4
	}
	return o
}

// placements enumerates the TP×PP shapes valid for the model with at most
// maxGPUs devices.
func placements(m model.Config, maxGPUs int) []perf.Placement {
	var out []perf.Placement
	for tp := 1; tp <= maxGPUs; tp *= 2 {
		for pp := 1; tp*pp <= maxGPUs; pp *= 2 {
			p := perf.Placement{TP: tp, PP: pp}
			if p.Validate(m) == nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// Candidates enumerates prefill/decode pairs that exactly use gpuBudget
// devices (the paper's linear scaling rule compares equal budgets).
func Candidates(m model.Config, gpuBudget, maxPerInstance int) []Candidate {
	var out []Candidate
	for _, pre := range placements(m, maxPerInstance) {
		for _, dec := range placements(m, maxPerInstance) {
			if pre.GPUs()+dec.GPUs() == gpuBudget {
				out = append(out, Candidate{Prefill: pre, Decode: dec})
			}
		}
	}
	return out
}

// Search simulates every candidate on the calibration workload and
// returns evaluations sorted best-first (highest attainment, then
// goodput). The trace is regenerated per candidate so the total request
// rate follows each candidate's GPU count — the linear scaling rule.
func Search(m model.Config, ds workload.Dataset, ratePerGPU float64, gpuBudget int, o Options) ([]Evaluation, error) {
	o = o.withDefaults()
	cands := Candidates(m, gpuBudget, o.MaxGPUsPerInstance)
	if len(cands) == 0 {
		return nil, fmt.Errorf("plan: no valid candidates for %s on %d GPUs", m.Name, gpuBudget)
	}
	var evals []Evaluation
	for _, cand := range cands {
		ev := Evaluation{Candidate: cand}
		cfg, err := serve.DefaultConfig(m)
		if err != nil {
			return nil, err
		}
		cfg.PrefillPlace = cand.Prefill
		cfg.DecodePlace = cand.Decode
		if ds.MaxContext > m.MaxContext {
			ds.MaxContext = m.MaxContext
		}
		g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: ratePerGPU * float64(cand.GPUs())}, o.Seed)
		src := workload.NewSliceSource(g.Generate(o.Requests))
		var res *serve.Result
		switch o.System {
		case "windserve":
			res, err = serve.RunWindServeFrom(cfg, src)
		case "distserve":
			res, err = serve.RunDistServeFrom(cfg, src)
		default:
			return nil, fmt.Errorf("plan: unknown system %q", o.System)
		}
		if err != nil {
			ev.Err = err
			evals = append(evals, ev)
			continue
		}
		s := res.Summary
		ev.Attainment = s.Attainment
		ev.GoodputPerGPU = s.ThroughputRPS * s.Attainment / float64(cand.GPUs())
		ev.TTFTP50Ms = s.TTFTP50.Milliseconds()
		ev.TPOTP99Ms = s.TPOTP99.Milliseconds()
		evals = append(evals, ev)
	}
	sort.SliceStable(evals, func(i, j int) bool {
		a, b := evals[i], evals[j]
		if (a.Err == nil) != (b.Err == nil) {
			return a.Err == nil
		}
		if a.Attainment != b.Attainment {
			return a.Attainment > b.Attainment
		}
		return a.GoodputPerGPU > b.GoodputPerGPU
	})
	return evals, nil
}
