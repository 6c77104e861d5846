package serve

import (
	"windserve/internal/engine"
	"windserve/internal/fault"
)

// installPDFaults compiles the configured fault plan into hooks against a
// prefill/decode cluster. Crash recovery defaults to the pd layer's
// re-prefill-from-scratch path; WindServe overrides it with the
// backup-aware recovery through pdHooks.crashPrefill/crashDecode.
func installPDFaults(r *runner, d *pd) error {
	if r.cfg.Faults == nil {
		return nil
	}
	crashP, crashD := d.crashPrefillDefault, d.crashDecodeDefault
	if d.ph.crashPrefill != nil {
		crashP = d.ph.crashPrefill
	}
	if d.ph.crashDecode != nil {
		crashD = d.ph.crashDecode
	}
	h := fault.Hooks{
		Crash: func(role fault.Role, idx int) {
			if role == fault.RolePrefill {
				if idx < len(d.prefills) && !d.prefills[idx].Down() {
					crashP(idx)
				}
			} else if idx < len(d.decodes) && !d.decodes[idx].Down() {
				crashD(idx)
			}
		},
		Restore: func(role fault.Role, idx int) {
			if role == fault.RolePrefill {
				if idx < len(d.prefills) {
					d.prefills[idx].Restore()
				}
			} else if idx < len(d.decodes) {
				d.decodes[idx].Restore()
				// Fresh decode KV may unblock transfers queued on survivors.
				d.retryTransfers()
			}
		},
		SetSlowdown: func(role fault.Role, idx int, factor float64) {
			if role == fault.RolePrefill {
				if idx < len(d.prefills) {
					d.prefills[idx].SetSlowdown(factor)
				}
			} else if idx < len(d.decodes) {
				d.decodes[idx].SetSlowdown(factor)
			}
		},
		SetLinkDegrade: d.degradeLinks,
		CancelFrac:     r.cancelFrac,
	}
	return fault.Apply(r.s, r.cfg.Faults, h)
}

// installVLLMFaults maps a plan onto vLLM's replica set. With no
// prefill/decode split, both roles address replica idx%len(instances);
// link degradation has no cross-instance link to act on and is ignored.
// Crash orphans re-prefill from scratch on the replica route provides.
func installVLLMFaults(r *runner, instances []*engine.Instance, route func(q *engine.Req)) error {
	if r.cfg.Faults == nil {
		return nil
	}
	n := len(instances)
	pick := func(idx int) *engine.Instance { return instances[idx%n] }
	h := fault.Hooks{
		Crash: func(_ fault.Role, idx int) {
			ins := pick(idx)
			if ins.Down() {
				return
			}
			for _, q := range ins.Crash() {
				if q.Phase == engine.PhaseDone || q.Phase == engine.PhaseAborted {
					continue
				}
				q.Restart()
				r.markRecovered(q)
				route(q)
			}
		},
		Restore: func(_ fault.Role, idx int) { pick(idx).Restore() },
		SetSlowdown: func(_ fault.Role, idx int, factor float64) {
			pick(idx).SetSlowdown(factor)
		},
		CancelFrac: r.cancelFrac,
	}
	return fault.Apply(r.s, r.cfg.Faults, h)
}
