package serve

import (
	"math"
	"testing"

	"windserve/internal/model"
	"windserve/internal/sim"
)

// FuzzServeConfig writes fuzz input into every numeric field serve.Config
// owns — the SLO, placements, instance counts, batch and chunk budgets,
// horizon, WindServe policy and shedding and streaming knobs — on top of
// the paper defaults, then validates. Validation must never panic, and a
// config it accepts must hold only finite, non-negative numbers after
// fillDefaults. Accepted configs are not planned or run: a fuzzed
// instance count would allocate without bound.
func FuzzServeConfig(f *testing.F) {
	f.Add(0.25, 0.1, 2, 1, 2, 1, 1, 1, 8192, 512, 0.0, 0.8, 0.08, 0.18, 64, 2, 0, 0.0, 0)
	f.Fuzz(func(t *testing.T, ttft, tpot float64, ptp, ppp, dtp, dpp, np, nd, maxPrefill, chunk int,
		horizon, thrd, low, target float64, drain, migrations, queue int, deadline float64, records int) {
		cfg, err := DefaultConfig(model.OPT13B)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SLO.TTFT, cfg.SLO.TPOT = sim.Duration(ttft), sim.Duration(tpot)
		cfg.PrefillPlace.TP, cfg.PrefillPlace.PP = ptp, ppp
		cfg.DecodePlace.TP, cfg.DecodePlace.PP = dtp, dpp
		cfg.NumPrefill, cfg.NumDecode = np, nd
		cfg.MaxPrefillTokens, cfg.ChunkSize = maxPrefill, chunk
		cfg.Horizon = sim.Duration(horizon)
		cfg.Wind.ThresholdFrac = thrd
		cfg.Wind.Resched.LowWatermark, cfg.Wind.Resched.TargetFree = low, target
		cfg.Wind.Resched.DrainThresholdTokens = drain
		cfg.Wind.Resched.MaxConcurrentMigrations = migrations
		cfg.Shed.MaxQueueDepth, cfg.Shed.TTFTDeadline = queue, sim.Duration(deadline)
		cfg.Stream.MaxRecords = records
		if cfg.validate() != nil {
			return
		}
		cfg.fillDefaults()
		r := cfg.Wind.Resched
		for _, v := range []float64{
			float64(cfg.SLO.TTFT), float64(cfg.SLO.TPOT),
			float64(cfg.PrefillPlace.TP), float64(cfg.PrefillPlace.PP),
			float64(cfg.DecodePlace.TP), float64(cfg.DecodePlace.PP),
			float64(cfg.NumPrefill), float64(cfg.NumDecode),
			float64(cfg.MaxPrefillTokens), float64(cfg.ChunkSize), float64(cfg.Horizon),
			cfg.Wind.ThresholdFrac, r.LowWatermark, r.TargetFree,
			float64(r.DrainThresholdTokens), float64(r.MaxConcurrentMigrations),
			float64(cfg.Shed.MaxQueueDepth), float64(cfg.Shed.TTFTDeadline),
			float64(cfg.Stream.MaxRecords),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("validate accepted a config with numeric field %v after fillDefaults: %+v", v, cfg)
			}
		}
	})
}
