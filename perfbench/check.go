package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// gate applies the checks every run must pass and returns the run's
// digest. n is the number of requests the source held; ref is the digest
// of the lane's first run, or "" for that run itself.
//
//   - The system pulled the whole source.
//   - Request conservation: every request sent ended in exactly one of
//     completed, aborted, rejected or unfinished.
//   - On a single testbed, a run that left nothing unfinished holds no KV
//     block.
//   - Every repeat of a lane yields the same digest.
func gate(s spec, n int, o outcome, ref string) (string, error) {
	var errs []error
	if o.sent != n {
		errs = append(errs, fmt.Errorf("system pulled %d of %d requests", o.sent, n))
	}
	if got := o.completed + o.aborted + o.rejected + o.unfinished; got != o.sent {
		errs = append(errs, fmt.Errorf("conservation: sent %d != completed %d + aborted %d + rejected %d + unfinished %d",
			o.sent, o.completed, o.aborted, o.rejected, o.unfinished))
	}
	if s.pd && o.unfinished == 0 && o.liveKV != 0 {
		errs = append(errs, fmt.Errorf("%d KV blocks still allocated after a complete run", o.liveKV))
	}
	d := digest(o)
	if ref != "" && d != ref {
		errs = append(errs, fmt.Errorf("digest %s differs from the lane's first run %s", d, ref))
	}
	return d, errors.Join(errs...)
}

// digest hashes every virtual-time field of an outcome. The shard
// barrier counters are left out: they describe how the host executed the
// run, not what the run computed.
func digest(o outcome) string {
	v := struct {
		Sent, Completed, Aborted, Rejected, Unfinished, LiveKV  int
		Elapsed                                                 float64
		Summary                                                 any
		KV                                                      any
		Dispatched, Rescheduled, Backups, AsyncXfers, Failovers int
		TransferGB, MigrationGB                                 float64
	}{
		o.sent, o.completed, o.aborted, o.rejected, o.unfinished, o.liveKV,
		float64(o.elapsed), o.sum, o.kv,
		o.dispatched, o.rescheduled, o.backups, o.asyncXfers, o.failovers,
		o.transferGB, o.migrationGB,
	}
	b, err := json.Marshal(v)
	if err != nil {
		// Only a NaN or infinity can fail here; hash its text instead so
		// the comparison still sees it.
		b = []byte(fmt.Sprintf("%#v", v))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// vtMetrics derives the virtual-time end-to-end metrics of one outcome.
// Latency percentiles cover completed requests; attainment counts every
// request sent, so aborted, rejected and unfinished requests are misses.
func vtMetrics(o outcome) map[string]float64 {
	m := map[string]float64{
		"vt.ttft_p50_ms":    o.sum.TTFTP50.Milliseconds(),
		"vt.ttft_p99_ms":    o.sum.TTFTP99.Milliseconds(),
		"vt.tpot_p50_ms":    o.sum.TPOTP50.Milliseconds(),
		"vt.tpot_p99_ms":    o.sum.TPOTP99.Milliseconds(),
		"vt.goodput_rps":    o.sum.GoodputRPS,
		"vt.slo_attainment": 0,
	}
	if o.sent > 0 {
		m["vt.slo_attainment"] = o.sum.Attainment * float64(o.completed) / float64(o.sent)
	}
	return m
}
