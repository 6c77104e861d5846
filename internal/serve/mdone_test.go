package serve

import (
	"math"
	"testing"

	"windserve/internal/workload"
)

// TestQueueMatchesMD1 validates the simulator against queueing theory:
// with fixed-size prompts, Poisson arrivals, one prompt per prefill pass,
// and a decode side too fast to ever backpressure, the prefill instance is
// an M/D/1 queue, whose mean wait is Wq = ρ·S / (2(1−ρ)). The measured
// mean prefill queue delay must track that closed form.
func TestQueueMatchesMD1(t *testing.T) {
	cfg := cfg13B(t)
	const prompt = 512
	cfg.MaxPrefillTokens = prompt // exactly one prompt per pass
	// Measure the deterministic service time S of one pass by serving a
	// single request far from any queueing.
	probe := workload.NewGenerator(workload.Fixed(prompt, 1, 2048), workload.UniformArrivals{Rate: 0.01}, 1)
	pres, err := RunDistServeFrom(cfg, workload.NewSliceSource(probe.Generate(1)))
	if err != nil {
		t.Fatal(err)
	}
	S := pres.Records[0].TTFT().Seconds() // no queue → pure service time

	for _, rho := range []float64{0.3, 0.5, 0.7} {
		lambda := rho / S
		g := workload.NewGenerator(workload.Fixed(prompt, 1, 2048), workload.PoissonArrivals{Rate: lambda}, 7)
		reqs := g.Generate(4000)
		res, err := RunDistServeFrom(cfg, workload.NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("rho=%.1f: %d unfinished", rho, res.Unfinished)
		}
		want := rho * S / (2 * (1 - rho))
		got := res.Summary.PrefillQueueMean.Seconds()
		// Monte-Carlo noise plus the simulator's 0-delay kick granularity:
		// accept 20% relative error (plus a small absolute floor at low ρ).
		tol := math.Max(0.20*want, 0.1*S)
		if math.Abs(got-want) > tol {
			t.Errorf("rho=%.1f: mean queue delay = %.1f ms, M/D/1 predicts %.1f ms (S=%.1f ms)",
				rho, got*1e3, want*1e3, S*1e3)
		}
	}
}
