package engine

import (
	"fmt"

	"windserve/internal/kvcache"
	"windserve/internal/workload"
)

// Phase is a request's position in the serving pipeline.
type Phase int

// Pipeline phases. Not every system visits every phase: co-located vLLM
// never transfers, DistServe never migrates.
const (
	// PhaseWaiting: queued for prefill.
	PhaseWaiting Phase = iota
	// PhasePrefilling: prefill (possibly chunked) in progress.
	PhasePrefilling
	// PhaseTransferring: KV cache moving between instances.
	PhaseTransferring
	// PhasePendingDecode: prefilled, KV resident, waiting to join the
	// running decode batch.
	PhasePendingDecode
	// PhaseDecoding: in the running batch.
	PhaseDecoding
	// PhaseSwapped: preempted, KV in host memory.
	PhaseSwapped
	// PhaseDraining: paused for the final copy of a stall-free migration.
	PhaseDraining
	// PhaseDone: EOS produced.
	PhaseDone
	// PhaseAborted: terminated before EOS — a TTFT-deadline abort or a
	// client cancellation. Terminal; the engine drops the request from
	// every queue and releases its KV.
	PhaseAborted
)

func (p Phase) String() string {
	switch p {
	case PhaseWaiting:
		return "waiting"
	case PhasePrefilling:
		return "prefilling"
	case PhaseTransferring:
		return "transferring"
	case PhasePendingDecode:
		return "pending-decode"
	case PhaseDecoding:
		return "decoding"
	case PhaseSwapped:
		return "swapped"
	case PhaseDraining:
		return "draining"
	case PhaseDone:
		return "done"
	case PhaseAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Req is a request flowing through the simulated serving system.
type Req struct {
	W     workload.Request
	Phase Phase

	// PrefillDone counts prompt tokens already prefilled (chunked prefill
	// advances this across iterations).
	PrefillDone int
	// Generated counts output tokens produced; prefill produces the first.
	Generated int

	// Assist marks a prefill dispatched to the decode instance
	// (WindServe's Dynamic Prefill Dispatch).
	Assist bool
	// Migrating marks an in-progress stall-free migration.
	Migrating bool
	// BackupTokens is how many context tokens are already backed up at the
	// prefill instance (reduces migration cost, paper §3.3).
	BackupTokens int
	// PrefixHit is how many prompt tokens were satisfied from the
	// cross-request prefix cache when this request's KV was allocated:
	// they start out counted in PrefillDone, so prefill compute shrinks
	// by the hit length. Zero unless prefix caching is enabled. Reset
	// alongside PrefillDone when a crash or recompute-eviction forces a
	// scratch re-prefill.
	PrefixHit int
	// Evictions counts preemptions (swap-outs and recompute evictions).
	Evictions int

	// inPass marks the request as selected into a forward pass that has
	// not yet applied — pipelined prefill passes overlap, and a request
	// must never be in two passes at once.
	inPass bool
	// runningOn is the instance whose running batch holds the request
	// (nil when in none): batch membership without a scan.
	runningOn *Instance
	// kvm/kvh cache the request's block-table handle on manager kvm, so a
	// decode step grows its KV without a map lookup.
	kvm *kvcache.Manager
	kvh kvcache.Handle
}

// NewReq wraps a workload request.
func NewReq(w workload.Request) *Req { return &Req{W: w} }

// Restart forgets everything the request did on its instances — prompt
// progress, prefix hit, generated tokens, assist, migration and backup
// state — so it can re-prefill from scratch after its KV was lost.
func (r *Req) Restart() {
	r.PrefillDone = 0
	r.PrefixHit = 0
	r.Generated = 0
	r.Assist = false
	r.Migrating = false
	r.BackupTokens = 0
}

// KVID is the request's key in KV managers.
func (r *Req) KVID() kvcache.RequestID { return kvcache.RequestID(r.W.ID) }

// Ctx is the current context length (prompt plus generated tokens).
func (r *Req) Ctx() int { return r.W.PromptTokens + r.Generated }

// PrefillComplete reports whether the whole prompt has been prefilled.
func (r *Req) PrefillComplete() bool { return r.PrefillDone >= r.W.PromptTokens }

// PrefillRemaining is the number of prompt tokens still to prefill.
func (r *Req) PrefillRemaining() int { return r.W.PromptTokens - r.PrefillDone }

// Finished reports whether all output tokens have been generated.
func (r *Req) Finished() bool { return r.Generated >= r.W.OutputTokens }

func (r *Req) String() string {
	return fmt.Sprintf("req%d[%s %d/%d prompt, %d/%d out]",
		r.W.ID, r.Phase, r.PrefillDone, r.W.PromptTokens, r.Generated, r.W.OutputTokens)
}
