package bench

import (
	"fmt"
	"io"

	"windserve/internal/fault"
	"windserve/internal/metrics"
	"windserve/internal/sched"
	"windserve/internal/serve"
	"windserve/internal/trace"
	"windserve/internal/workload"
)

// TraceArtifacts is everything a traced run produces: the result, the
// execution-span tracer, and the scheduler decision log. The caller
// exports them (obs.WriteChromeTrace, DecisionLog.WriteJSONL) or inspects
// them directly in tests.
type TraceArtifacts struct {
	Result    *serve.Result
	Tracer    *trace.Tracer
	Decisions *sched.DecisionLog
}

// ExpTraceCapture runs WindServe on the OPT-13B ShareGPT scenario at
// 4 req/s/GPU — the middle of the Fig. 10a sweep — with full observability
// on: execution spans and occupancy counters in the Tracer, every
// scheduler decision in the DecisionLog. An optional fault plan perturbs
// the run (traced fault runs are where the timeline earns its keep).
func ExpTraceCapture(o Options, w io.Writer, plan *fault.Plan) (*TraceArtifacts, error) {
	o = o.withDefaults()
	sc := chatbot13B()
	cfg, err := o.config(sc.model)
	if err != nil {
		return nil, err
	}
	cfg.Tracer = trace.New()
	cfg.Decisions = sched.NewDecisionLog()
	cfg.Faults = plan

	reqs := sc.trace(4, cfg, o)
	res, err := serve.RunWindServeFrom(cfg, workload.NewSliceSource(reqs))
	if err != nil {
		return nil, fmt.Errorf("bench: trace capture: %w", err)
	}

	tw := table(w)
	fmt.Fprintf(tw, "system\treqs\tspans\tlanes\tcounter tracks\tdispatch\treschedule\troute\n")
	fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
		res.System, res.Requests,
		len(cfg.Tracer.Spans), len(cfg.Tracer.Lanes()), len(cfg.Tracer.CounterTracks()),
		len(cfg.Decisions.Dispatches), len(cfg.Decisions.Reschedules), len(cfg.Decisions.Routes))
	tw.Flush()
	fmt.Fprintln(w, res)

	return &TraceArtifacts{Result: res, Tracer: cfg.Tracer, Decisions: cfg.Decisions}, nil
}

// AllRecords returns every finalized record — completed, aborted, and
// rejected — the full track set for timeline export.
func (a *TraceArtifacts) AllRecords() []*metrics.Record {
	r := a.Result
	out := make([]*metrics.Record, 0, len(r.Records)+len(r.AbortedRecords)+len(r.RejectedRecords))
	out = append(out, r.Records...)
	out = append(out, r.AbortedRecords...)
	out = append(out, r.RejectedRecords...)
	return out
}
