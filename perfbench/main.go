// Command perfbench is the repository's benchmark. It feeds a seeded
// request stream to a serving system's entry point (serve.RunWindServeFrom
// or fleet.RunFrom), repeats the run for a fixed host-time budget, checks
// every run, and prints one JSON object as the last line of standard
// output: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload pd-steady --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"windserve/internal/sched"
	"windserve/internal/trace"
)

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run: three host metrics
// measured with tracing off, then virtual-time metrics of the simulated
// system. Wall-clock throughput is a per-layer metric instead: on a VM
// it moves with hypervisor steal, which CPU time excludes.
var endToEnd = []metricDef{
	{"cpu_us_per_req", "us"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"vt.ttft_p50_ms", "ms"},
	{"vt.ttft_p99_ms", "ms"},
	{"vt.tpot_p50_ms", "ms"},
	{"vt.tpot_p99_ms", "ms"},
	{"vt.slo_attainment", "ratio"},
	{"vt.goodput_rps", "req/s"},
	{"vt.served_frac", "ratio"},
}

// perLayer are the metrics of a --trace 1 run.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"bench.wall_req_per_s", "req/s"},
		{"bench.setup_s", "s"},
		{"workload.pull_s", "s"},
		{"bench.run_s", "s"},
		{"bench.check_s", "s"},
	}
	for _, l := range layers {
		d = append(d, metricDef{l + ".cpu_share", "ratio"})
	}
	return append(d, []metricDef{
		{"profile.samples", "count"},
		{"engine.passes.prefill", "count"},
		{"engine.passes.decode", "count"},
		{"engine.passes.sbd", "count"},
		{"engine.passes.hybrid", "count"},
		{"kvcache.peak_blocks", "count"},
		{"kvcache.swap_out", "count"},
		{"kvcache.failed_allocs", "count"},
		{"kvcache.prefix_hit_ratio", "ratio"},
		{"kvcache.prefix_evictions", "count"},
		{"kvcache.prefix_demotions", "count"},
		{"kvcache.prefix_restores", "count"},
		{"sched.dispatched", "count"},
		{"sched.rescheduled", "count"},
		{"sched.backups", "count"},
		{"sched.decisions", "count"},
		{"xfer.transfer_gb", "GB"},
		{"xfer.migration_gb", "GB"},
		{"xfer.async_xfers", "count"},
		{"fleet.failovers", "count"},
		{"fleet.routes", "count"},
		{"shard.windows", "count"},
		{"shard.crossings", "count"},
		{"shard.solo_windows", "count"},
		{"shard.delivered", "count"},
		{"runtime.alloc_bytes_per_req", "B/req"},
		{"runtime.mallocs_per_req", "count/req"},
		{"runtime.gc_cycles", "count"},
		{"trace.overhead", "ratio"},
	}...)
}()

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pd-steady, pd-saturated or fleet-chat-prefix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to spend on timed repeats")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	s, err := specByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds %g must be positive", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *traced)
	}
	b := newBench(s, *seed, s.requests, time.Duration(*seconds*float64(time.Second)), stderr)
	var rep report
	if *traced == 1 {
		rep, err = b.perLayer()
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench runs one workload at one seed and keeps the books every run
// shares: per-lane reference digests and outcomes, requests attempted
// and failed, and check failures.
//
// A run serves spec.lanes distinct streams ("lanes"), each of
// spec.requests requests, with seeds derived from the workload seed.
// Repeats cycle through the lanes, so a repeat after the first pass
// re-serves a lane and must reproduce its digest. The virtual-time
// metrics are medians over the lanes, which depend on the seed alone,
// never on how many repeats the host had time for.
type bench struct {
	spec   spec
	seed   int64
	n      int
	budget time.Duration
	log    io.Writer

	// refs and firsts hold each lane's first digest and outcome; "" marks
	// a lane not yet served without error.
	refs              []string
	firsts            []outcome
	setups            []float64
	attempted, failed int
	errs              []error
}

// setupPerRepeat is the number of set-up builds made before each timed
// repeat of an end-to-end run; setup_s is their median.
const setupPerRepeat = 50

// newBench prepares a run of workload s at seed with lanes of n requests.
func newBench(s spec, seed int64, n int, budget time.Duration, log io.Writer) *bench {
	return &bench{
		spec: s, seed: seed, n: n, budget: budget, log: log,
		refs: make([]string, s.lanes), firsts: make([]outcome, s.lanes),
	}
}

// laneSeed derives lane k's stream seed, distinct for every (seed, lane)
// pair with lane < 1000.
func laneSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// sample is one repeat's host-side measurements.
type sample struct {
	setup, run, pull, check time.Duration
	cpu                     time.Duration
	peakHeap                uint64
	allocBytes, mallocs     uint64
	gcCycles                uint64
}

// wall is the repeat's host time from config construction to the end of
// the run.
func (s sample) wall() time.Duration { return s.setup + s.run }

// once serves one lane, gates the outcome, and books its requests. A run
// that errors or fails a check counts every request as failed.
func (b *bench) once(lane int, timed bool, p probe) sample {
	runtime.GC()
	src := &pullSource{n: b.n, timed: timed}
	hs := startHeapSampler()
	before := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	o, err := b.spec.run(src, laneSeed(b.seed, lane), p)
	end := time.Now()
	cpu1 := cpuTime()
	after := readRuntime()
	smp := sample{
		cpu:        cpu1 - cpu0,
		peakHeap:   hs.stop(),
		allocBytes: after[0].Value.Uint64() - before[0].Value.Uint64(),
		mallocs:    after[1].Value.Uint64() - before[1].Value.Uint64(),
		gcCycles:   after[2].Value.Uint64() - before[2].Value.Uint64(),
		pull:       src.pull,
	}
	if src.first.IsZero() {
		src.first = end
	}
	smp.setup, smp.run = src.first.Sub(start), end.Sub(src.first)

	b.attempted += b.n
	if err == nil {
		var d string
		d, err = gate(b.spec, b.n, o, b.refs[lane])
		if b.refs[lane] == "" {
			b.refs[lane], b.firsts[lane] = d, o
		}
	}
	smp.check = time.Since(end)
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("lane %d: %w", lane, err))
		b.failed += b.n
	} else {
		b.failed += o.aborted + o.rejected + o.unfinished
	}
	return smp
}

// repeats cycles through the lanes, starting at lane 0, until budget has
// passed and at least least repeats have run. Before each repeat it makes
// setupEach set-up builds.
func (b *bench) repeats(budget time.Duration, least, setupEach int, timed bool) []sample {
	var out []sample
	for t0 := time.Now(); len(out) < least || time.Since(t0) < budget; {
		b.setupBuilds(setupEach)
		out = append(out, b.once(len(out)%b.spec.lanes, timed, probe{}))
	}
	return out
}

// setupBuilds builds the workload's system k times over an empty stream
// and books each build's set-up time: from config construction to the
// first pull. Spreading the builds over the timed run, rather than
// making them all at once, keeps a burst of host noise from moving the
// median.
func (b *bench) setupBuilds(k int) {
	if k > 0 {
		runtime.GC()
	}
	for range k {
		src := &pullSource{}
		start := time.Now()
		if _, err := b.spec.run(src, b.seed, probe{}); err != nil {
			b.errs = append(b.errs, fmt.Errorf("set-up: %w", err))
			b.setups = append(b.setups, 0)
			return
		}
		if src.first.IsZero() {
			src.first = time.Now()
		}
		b.setups = append(b.setups, src.first.Sub(start).Seconds())
	}
}

func (b *bench) endToEnd() (report, error) {
	smps := b.repeats(b.budget, b.spec.lanes, setupPerRepeat, false)
	rates := each(smps, func(s sample) float64 { return float64(b.n) / s.wall().Seconds() })
	sort.Float64s(rates)
	m := map[string]float64{
		"cpu_us_per_req": median(each(smps, func(s sample) float64 { return s.cpu.Seconds() * 1e6 / float64(b.n) })),
		"setup_s":        median(b.setups),
		"peak_heap_mb":   median(each(smps, func(s sample) float64 { return float64(s.peakHeap) / (1 << 20) })),
		"vt.served_frac": float64(b.attempted-b.failed) / float64(b.attempted),
	}
	var served []outcome
	for i, o := range b.firsts {
		if b.refs[i] != "" {
			served = append(served, o)
		}
	}
	samples, lanes := 0, map[string][]float64{}
	for _, o := range served {
		samples += o.sum.Requests
		for k, v := range vtMetrics(o) {
			lanes[k] = append(lanes[k], v)
		}
	}
	for k, v := range lanes {
		m[k] = median(v)
	}
	fmt.Fprintf(b.log, "%s seed %d: %d repeats over %d lanes of %d requests; %d set-up builds; req/s min %.0f median %.0f max %.0f; requests_sent %d requests_failed %d; latency samples %d; lane digests %v\n",
		b.spec.name, b.seed, len(smps), b.spec.lanes, b.n, len(b.setups), rates[0], median(rates), rates[len(rates)-1],
		b.attempted, b.failed, samples, b.refs)
	return b.report(endToEnd, m), nil
}

// perLayer measures untraced repeats for half the budget and profiled,
// span-timed repeats for the other half, then serves lane 0 once more
// with the engine tracer and the decision log attached. Work counts come
// from lane 0.
func (b *bench) perLayer() (report, error) {
	plain := b.repeats(b.budget/2, 1, 0, false)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	timed := b.repeats(b.budget/2, 1, 0, true)
	pprof.StopCPUProfile()
	shares, nsamples, err := layerShares(prof.Bytes())
	if err != nil {
		return report{}, err
	}

	p := probe{decisions: sched.NewDecisionLog()}
	if b.spec.pd {
		p.tracer = trace.New()
	}
	b.once(0, false, p)

	m := map[string]float64{
		"bench.wall_req_per_s": median(each(plain, func(s sample) float64 { return float64(b.n) / s.wall().Seconds() })),
		"bench.setup_s":        median(each(timed, func(s sample) float64 { return s.setup.Seconds() })),
		"workload.pull_s":      median(each(timed, func(s sample) float64 { return s.pull.Seconds() })),
		"bench.run_s":          median(each(timed, func(s sample) float64 { return s.run.Seconds() })),
		"bench.check_s":        median(each(timed, func(s sample) float64 { return s.check.Seconds() })),
		"profile.samples":      float64(nsamples),
		"trace.overhead": median(each(timed, func(s sample) float64 { return s.wall().Seconds() })) /
			median(each(plain, func(s sample) float64 { return s.wall().Seconds() })),
		"runtime.alloc_bytes_per_req": median(each(plain, func(s sample) float64 { return float64(s.allocBytes) / float64(b.n) })),
		"runtime.mallocs_per_req":     median(each(plain, func(s sample) float64 { return float64(s.mallocs) / float64(b.n) })),
		"runtime.gc_cycles":           median(each(plain, func(s sample) float64 { return float64(s.gcCycles) })),
	}
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	for k, v := range workCounts(b.firsts[0], p) {
		m[k] = v
	}
	fmt.Fprintf(b.log, "%s seed %d: %d plain and %d profiled repeats of %d requests; %d profile samples; lane digests %v\n",
		b.spec.name, b.seed, len(plain), len(timed), b.n, nsamples, b.refs)
	return b.report(perLayer, m), nil
}

// workCounts reads the per-layer work counters of a run's public results
// and of the counting run's observers.
func workCounts(o outcome, p probe) map[string]float64 {
	m := map[string]float64{
		"kvcache.peak_blocks":      float64(o.kv.PeakBlocks),
		"kvcache.swap_out":         float64(o.kv.SwapOutEvents),
		"kvcache.failed_allocs":    float64(o.kv.FailedAllocs),
		"kvcache.prefix_hit_ratio": o.kv.PrefixHitRatio(),
		"kvcache.prefix_evictions": float64(o.kv.PrefixEvictions),
		"kvcache.prefix_demotions": float64(o.kv.PrefixDemotions),
		"kvcache.prefix_restores":  float64(o.kv.PrefixRestores),
		"sched.dispatched":         float64(o.dispatched),
		"sched.rescheduled":        float64(o.rescheduled),
		"sched.backups":            float64(o.backups),
		"sched.decisions":          float64(p.decisions.Len()),
		"xfer.transfer_gb":         o.transferGB,
		"xfer.migration_gb":        o.migrationGB,
		"xfer.async_xfers":         float64(o.asyncXfers),
		"fleet.failovers":          float64(o.failovers),
		"fleet.routes":             float64(len(p.decisions.Routes)),
		"shard.windows":            float64(o.shard.Windows),
		"shard.crossings":          float64(o.shard.Crossings),
		"shard.solo_windows":       float64(o.shard.SoloWindows),
		"shard.delivered":          float64(o.shard.Delivered),
	}
	if p.tracer != nil {
		for _, sp := range p.tracer.Spans {
			switch sp.Kind {
			case trace.KindPrefill, trace.KindChunk:
				m["engine.passes.prefill"]++
			case trace.KindDecode, trace.KindSBDDecode:
				m["engine.passes.decode"]++
			case trace.KindSBDPrefill:
				m["engine.passes.sbd"]++
			case trace.KindHybrid:
				m["engine.passes.hybrid"]++
			}
		}
	}
	return m
}

// report assembles the result line: every metric in defs, with the
// correctness verdict of every run made.
func (b *bench) report(defs []metricDef, m map[string]float64) report {
	rep := report{
		Correct:   len(b.errs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	for _, err := range b.errs {
		fmt.Fprintf(b.log, "check failed: %v\n", err)
	}
	return rep
}

func each(s []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = f(x)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readRuntime samples the allocation and GC counters a repeat reports.
func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s
}

// heapSampler polls the bytes held by heap objects and keeps the peak.
type heapSampler struct {
	done, exited chan struct{}
	peak         uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(h.exited)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	<-h.exited
	return h.peak
}
