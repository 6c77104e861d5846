package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricTablesMatchBenchmarkFile keeps the metrics the runner prints
// and the metrics BENCHMARK.json declares the same lists.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the runner prints %d", kind, len(declared), len(printed))
		}
		for i := range min(len(declared), len(printed)) {
			if d, p := declared[i], printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", kind, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the runner has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: declared %s, runner has %s", i, w.Name, specs[i].name)
		}
	}
}

// TestTinyRunEmitsEveryMetric runs each workload at a tiny lane size in
// both modes and checks the result line: correct, and every declared
// metric present with its unit.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, s := range specs {
		for _, mode := range []struct {
			name    string
			measure func(*bench) (report, error)
			want    []struct{ Name, Unit string }
		}{{"end-to-end", (*bench).endToEnd, bf.EndToEnd}, {"per-layer", (*bench).perLayer, bf.PerLayer}} {
			var stderr bytes.Buffer
			rep, err := mode.measure(newBench(s, 3, s.tiny, 10*time.Millisecond, &stderr))
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", s.name, mode.name, err, stderr.String())
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var got report
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s %s: result line does not decode: %v", s.name, mode.name, err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d\n%s",
					s.name, mode.name, got.Correct, got.Attempted, got.Failed, stderr.String())
			}
			if len(got.Metrics) != len(mode.want) {
				t.Errorf("%s %s: %d metrics, want %d", s.name, mode.name, len(got.Metrics), len(mode.want))
			}
			for _, w := range mode.want {
				m, ok := got.Metrics[w.Name]
				if !ok || m.Unit != w.Unit {
					t.Errorf("%s %s: metric %s = %+v, want unit %s", s.name, mode.name, w.Name, m, w.Unit)
				}
			}
			if mode.name == "end-to-end" && got.Metrics["vt.served_frac"].Value != 1 {
				t.Errorf("%s: vt.served_frac %v, want 1", s.name, got.Metrics["vt.served_frac"].Value)
			}
		}
	}
}

// TestRunRejectsBadArguments checks that the command line takes only the
// workload, seed, seconds and trace arguments, and prints no result when
// it refuses them.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pd-steady", "--seconds", "0"},
		{"--workload", "pd-steady", "--trace", "2"},
		{"--workload", "pd-steady", "--requests", "10"},
		{"--workload", "pd-steady", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || stdout.Len() > 0 {
			t.Errorf("run(%q) = %v with output %q, want an error and no output", args, err, stdout.String())
		}
	}
}

// TestGateRejectsDoctoredResults checks that the gate passes a real run
// and rejects the same run with broken conservation, a leaked KV block
// or a differing digest.
func TestGateRejectsDoctoredResults(t *testing.T) {
	s, err := specByName("pd-steady")
	if err != nil {
		t.Fatal(err)
	}
	src := &pullSource{n: s.tiny}
	o, err := s.run(src, 5, probe{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gate(s, s.tiny, o, "")
	if err != nil {
		t.Fatalf("real run rejected: %v", err)
	}
	if _, err := gate(s, s.tiny, o, ref); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}

	lost := o
	lost.completed--
	if _, err := gate(s, s.tiny, lost, ""); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Errorf("a lost request passed the gate: %v", err)
	}
	leak := o
	leak.liveKV = 3
	if _, err := gate(s, s.tiny, leak, ""); err == nil {
		t.Error("a leaked KV block passed the gate")
	}
	drift := o
	drift.sum.TTFTP99 *= 1.0001
	if _, err := gate(s, s.tiny, drift, ref); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("a drifted TTFT p99 passed the gate: %v", err)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"windserve/internal/kvcache.(*Manager).evictPrefixBlocks": "kvcache",
		"windserve/internal/engine.(*Instance).formBatch.func2":   "engine",
		"windserve/internal/model.Config.Params":                  "perf",
		"windserve/internal/stats.(*P2).Add":                      "metrics",
		"windserve/internal/shard.(*Group[...]).Run":              "shard",
		"windserve/internal/fault.Parse":                          "other",
		"windserve.Run":                                           "other",
		"main.(*bench).once":                                      "bench",
		"runtime.mapiternext":                                     "",
		"windservefoo.Bar":                                        "",
		"sort.Float64s":                                           "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// raceBuild is set under -race, whose runtime samples land in C frames
// the CPU profiler cannot unwind into Go code.
var raceBuild bool

// TestLayerSharesOfARealProfile profiles a small pd-steady run and checks
// that the decoder charges samples to the layers that do the work.
func TestLayerSharesOfARealProfile(t *testing.T) {
	if raceBuild {
		t.Skip("CPU profiles under the race detector carry no Go frames")
	}
	s, err := specByName("pd-steady")
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		if _, err := s.run(&pullSource{n: 2000}, 1, probe{}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := layerShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Skipf("only %d samples", n)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if shares["engine"]+shares["kvcache"]+shares["perf"] < 0.3 {
		t.Errorf("engine, kvcache and perf hold only %v of %d samples: %v", shares["engine"]+shares["kvcache"]+shares["perf"], n, shares)
	}
}
