// Package fault injects failures into a serving simulation. A Plan is a
// declarative, seeded list of disturbance events — instance crashes,
// transient GPU slowdowns, interconnect degradation, client cancellations
// — that Apply compiles into simulator events against a set of
// system-provided Hooks. Because the simulator orders events totally and
// the only randomness (picking which requests a cancellation hits) is
// seeded from the plan, a run under a fault plan is exactly as
// reproducible as a run without one.
//
// Plans can be built programmatically or parsed from a compact spec
// string (see Parse):
//
//	crash:d0@15+10; slow:p0@10x1.5+20; degrade@20x0.25+30; cancel@12x0.2
//
// The recovery semantics — what a crash loses, what KV backups restore,
// how degradation feeds the Global Scheduler — live in internal/serve;
// this package only decides when each disturbance fires.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"windserve/internal/sim"
)

// Kind classifies a disturbance.
type Kind int

const (
	// Crash takes an instance down, losing its KV cache and in-flight
	// work. With a Duration the instance restores afterwards (empty).
	Crash Kind = iota
	// Slowdown multiplies an instance's pass durations by Factor
	// (thermal throttling, a noisy neighbor). Factor >= 1.
	Slowdown
	// LinkDegrade scales all cross-instance link bandwidth to Factor of
	// nominal (0 < Factor <= 1) — congestion or a failing NIC.
	LinkDegrade
	// Cancel aborts a Factor fraction of the currently in-flight
	// requests, chosen by the plan's seeded RNG (client disconnects).
	Cancel
	// ReplicaCrash takes a whole replica down in a fleet run: every
	// instance of the prefill/decode group loses its KV and in-flight
	// work at once. With a Duration the replica restores afterwards
	// (empty). Target is r<i>.
	ReplicaCrash
	// ReplicaSlow multiplies pass durations on every instance of one
	// replica by Factor (>= 1) — a whole slow node.
	ReplicaSlow
	// ReplicaPartition cuts the network path between the router and one
	// replica: the replica keeps executing its in-flight work, but the
	// router stops routing to it and treats its requests as timed out.
	// Duration 0 partitions it for the rest of the run.
	ReplicaPartition
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Slowdown:
		return "slow"
	case LinkDegrade:
		return "degrade"
	case Cancel:
		return "cancel"
	case ReplicaCrash:
		return "rcrash"
	case ReplicaSlow:
		return "rslow"
	case ReplicaPartition:
		return "rpart"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// needsTarget reports whether the kind addresses a specific instance or
// replica (and so requires a :target in the spec syntax).
func (k Kind) needsTarget() bool {
	switch k {
	case Crash, Slowdown, ReplicaCrash, ReplicaSlow, ReplicaPartition:
		return true
	}
	return false
}

// needsFactor reports whether the kind is parameterized by an xfactor.
func (k Kind) needsFactor() bool {
	switch k {
	case Slowdown, LinkDegrade, Cancel, ReplicaSlow:
		return true
	}
	return false
}

// targetsReplica reports whether the kind's target is a fleet replica
// (r<i>) rather than a single instance (p<i>/d<i>).
func (k Kind) targetsReplica() bool {
	switch k {
	case ReplicaCrash, ReplicaSlow, ReplicaPartition:
		return true
	}
	return false
}

// Role selects which side of the disaggregated deployment an instance
// event targets. Systems without the role (vLLM has no decode instances)
// map both roles onto their replica set.
type Role int

const (
	// RolePrefill targets prefill instance Event.Instance.
	RolePrefill Role = iota
	// RoleDecode targets decode instance Event.Instance.
	RoleDecode
	// RoleReplica targets whole replica Event.Instance in a fleet run.
	// Set implicitly by the replica-granularity kinds.
	RoleReplica
)

func (r Role) String() string {
	switch r {
	case RoleDecode:
		return "d"
	case RoleReplica:
		return "r"
	default:
		return "p"
	}
}

// Event is one scheduled disturbance.
type Event struct {
	Kind Kind
	// Role and Instance pick the target for Crash and Slowdown.
	Role     Role
	Instance int
	// At is when the disturbance begins.
	At sim.Time
	// Duration is how long it lasts; 0 means it persists to the end of
	// the run (permanent for Crash/Slowdown/LinkDegrade, irrelevant for
	// Cancel, which is instantaneous).
	Duration sim.Duration
	// Factor parameterizes the disturbance: slowdown multiplier (>= 1),
	// remaining bandwidth fraction (0..1], or cancelled request fraction
	// (0..1].
	Factor float64
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", e.Kind)
	if e.Kind.needsTarget() {
		fmt.Fprintf(&b, ":%s%d", e.Role, e.Instance)
	}
	fmt.Fprintf(&b, "@%g", float64(e.At))
	if e.Kind.needsFactor() {
		fmt.Fprintf(&b, "x%g", e.Factor)
	}
	if e.Duration > 0 {
		fmt.Fprintf(&b, "+%g", e.Duration.Seconds())
	}
	return b.String()
}

// Plan is a seeded set of disturbances for one run.
type Plan struct {
	// Seed drives the plan's own randomness (cancellation victims). The
	// workload seed stays separate so the same trace can be replayed
	// under different plans.
	Seed   int64
	Events []Event
}

// String renders the plan in the spec syntax Parse accepts.
func (p *Plan) String() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Validate checks every event for well-formedness, and rejects plans
// whose binary-state windows (crash/rcrash/rpart) overlap on the same
// target: an overlapping pair would fire a restore inside the other
// window, silently resurrecting a target that should still be down.
func (p *Plan) Validate() error {
	for i, e := range p.Events {
		// NaN fails every comparison below, so non-finite values must be
		// rejected before any range check can pass them.
		for _, v := range []struct {
			name string
			x    float64
		}{{"time", float64(e.At)}, {"duration", e.Duration.Seconds()}, {"factor", e.Factor},
			{"end time", float64(e.At.Add(e.Duration))}} {
			if math.IsNaN(v.x) || math.IsInf(v.x, 0) {
				return fmt.Errorf("fault: event %d (%s): non-finite %s %g", i, e, v.name, v.x)
			}
		}
		if e.At < 0 {
			return fmt.Errorf("fault: event %d (%s): negative time", i, e)
		}
		if e.Duration < 0 {
			return fmt.Errorf("fault: event %d (%s): negative duration", i, e)
		}
		if e.Instance < 0 {
			return fmt.Errorf("fault: event %d (%s): negative instance index", i, e)
		}
		if e.Kind.targetsReplica() && e.Role != RoleReplica {
			return fmt.Errorf("fault: event %d (%s): %s targets a replica (r<i>), role %s given",
				i, e, e.Kind, e.Role)
		}
		switch e.Kind {
		case Crash, ReplicaCrash, ReplicaPartition:
			if e.Factor != 0 {
				return fmt.Errorf("fault: event %d (%s): %s takes no factor", i, e, e.Kind)
			}
		case Slowdown, ReplicaSlow:
			if e.Factor < 1 {
				return fmt.Errorf("fault: event %d (%s): slowdown factor %g < 1", i, e, e.Factor)
			}
		case LinkDegrade:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("fault: event %d (%s): degrade factor %g outside (0,1]", i, e, e.Factor)
			}
		case Cancel:
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("fault: event %d (%s): cancel fraction %g outside (0,1]", i, e, e.Factor)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return p.validateWindows()
}

// validateWindows rejects overlapping crash (or partition) windows on the
// same target. A zero Duration is permanent and overlaps everything later
// on that target.
func (p *Plan) validateWindows() error {
	type window struct {
		idx int
		e   Event
	}
	byTarget := make(map[[3]int][]window)
	for i, e := range p.Events {
		switch e.Kind {
		case Crash, ReplicaCrash, ReplicaPartition:
			key := [3]int{int(e.Kind), int(e.Role), e.Instance}
			byTarget[key] = append(byTarget[key], window{i, e})
		}
	}
	for _, ws := range byTarget {
		sort.Slice(ws, func(a, b int) bool { return ws[a].e.At < ws[b].e.At })
		for i := 1; i < len(ws); i++ {
			prev, cur := ws[i-1], ws[i]
			if prev.e.Duration == 0 || prev.e.At.Add(prev.e.Duration) > cur.e.At {
				return fmt.Errorf("fault: events %d (%s) and %d (%s): overlapping %s windows on the same target",
					prev.idx, prev.e, cur.idx, cur.e, prev.e.Kind)
			}
		}
	}
	return nil
}

// ValidateTargets rejects events that reference targets outside the
// deployment being run: instance events (crash/slow) must address a
// prefill or decode instance below the given counts, and replica events
// (rcrash/rslow/rpart) a replica below numReplicas. A count of zero means
// that target space does not exist in the calling context — a
// single-testbed run has no replicas; a fleet plan addresses replicas,
// not individual instances — so any event addressing it is rejected
// rather than silently ignored.
func (p *Plan) ValidateTargets(numPrefill, numDecode, numReplicas int) error {
	for i, e := range p.Events {
		if !e.Kind.needsTarget() {
			continue
		}
		if e.Kind.targetsReplica() {
			if numReplicas == 0 {
				return fmt.Errorf("fault: event %d (%s): replica event in a run with no replica tier", i, e)
			}
			if e.Instance >= numReplicas {
				return fmt.Errorf("fault: event %d (%s): targets replica %d of %d replicas",
					i, e, e.Instance, numReplicas)
			}
			continue
		}
		limit := numPrefill
		if e.Role == RoleDecode {
			limit = numDecode
		}
		if limit == 0 {
			return fmt.Errorf("fault: event %d (%s): instance event in a run with no addressable %s instances (use r<i> targets in fleet plans)",
				i, e, e.Role)
		}
		if e.Instance >= limit {
			return fmt.Errorf("fault: event %d (%s): targets instance %d of %d %s instances",
				i, e, e.Instance, limit, e.Role)
		}
	}
	return nil
}

// Parse reads a plan from a compact spec. Events are separated by ';',
// each of the form
//
//	kind[:target]@time[xfactor][+duration]
//
// where kind is crash|slow|degrade|cancel|rcrash|rslow|rpart, target is
// p<i> or d<i> (prefill/decode instance i, required for crash and slow)
// or r<i> (replica i, required for the r* kinds), time and duration are
// seconds, and factor is the kind's parameter. Examples:
//
//	crash:d0@15          decode 0 dies at t=15s, permanently
//	crash:p1@10+5        prefill 1 dies at t=10s, restores at t=15s
//	slow:d0@10x2+20      decode 0 runs 2x slower from t=10s to t=30s
//	degrade@20x0.25+30   links at 25% bandwidth from t=20s to t=50s
//	cancel@12x0.2        20% of in-flight requests cancelled at t=12s
//	rcrash:r3@30+15      replica 3 dies at t=30s, restores at t=45s
//	rslow:r1@10x2+20     every instance of replica 1 2x slower for 20s
//	rpart:r0@25+10       router loses replica 0 from t=25s to t=35s
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, raw := range strings.Split(spec, ";") {
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		ev, err := parseEvent(s)
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, ev)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseEvent(s string) (Event, error) {
	head, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q: missing @time", s)
	}
	var ev Event
	kind, target, hasTarget := strings.Cut(head, ":")
	switch kind {
	case "crash":
		ev.Kind = Crash
	case "slow":
		ev.Kind = Slowdown
	case "degrade":
		ev.Kind = LinkDegrade
	case "cancel":
		ev.Kind = Cancel
	case "rcrash":
		ev.Kind = ReplicaCrash
	case "rslow":
		ev.Kind = ReplicaSlow
	case "rpart":
		ev.Kind = ReplicaPartition
	default:
		return Event{}, fmt.Errorf("fault: event %q: unknown kind %q", s, kind)
	}
	needsTarget := ev.Kind.needsTarget()
	if needsTarget != hasTarget {
		return Event{}, fmt.Errorf("fault: event %q: %s %s a :target", s, kind,
			map[bool]string{true: "requires", false: "does not take"}[needsTarget])
	}
	if hasTarget {
		role, idx, err := parseTarget(target)
		if err != nil {
			return Event{}, fmt.Errorf("fault: event %q: %v", s, err)
		}
		if ev.Kind.targetsReplica() != (role == RoleReplica) {
			want := "p<i> or d<i>"
			if ev.Kind.targetsReplica() {
				want = "r<i>"
			}
			return Event{}, fmt.Errorf("fault: event %q: %s takes a %s target, got %q", s, kind, want, target)
		}
		ev.Role, ev.Instance = role, idx
	}
	// rest is time[xfactor][+duration]; cut the '+' first since factors
	// never contain one.
	timeFactor, durStr, hasDur := strings.Cut(rest, "+")
	timeStr, factorStr, hasFactor := strings.Cut(timeFactor, "x")
	at, err := strconv.ParseFloat(timeStr, 64)
	if err != nil {
		return Event{}, fmt.Errorf("fault: event %q: bad time %q", s, timeStr)
	}
	ev.At = sim.Time(at)
	if hasFactor {
		if !ev.Kind.needsFactor() {
			return Event{}, fmt.Errorf("fault: event %q: %s does not take an xfactor", s, kind)
		}
		f, err := strconv.ParseFloat(factorStr, 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: event %q: bad factor %q", s, factorStr)
		}
		ev.Factor = f
	} else if ev.Kind.needsFactor() {
		return Event{}, fmt.Errorf("fault: event %q: %s requires an xfactor", s, kind)
	}
	if hasDur {
		d, err := strconv.ParseFloat(durStr, 64)
		if err != nil {
			return Event{}, fmt.Errorf("fault: event %q: bad duration %q", s, durStr)
		}
		ev.Duration = sim.Seconds(d)
	}
	return ev, nil
}

func parseTarget(t string) (Role, int, error) {
	if len(t) < 2 {
		return 0, 0, fmt.Errorf("bad target %q (want p<i>, d<i>, or r<i>)", t)
	}
	var role Role
	switch t[0] {
	case 'p':
		role = RolePrefill
	case 'd':
		role = RoleDecode
	case 'r':
		role = RoleReplica
	default:
		return 0, 0, fmt.Errorf("bad target %q (want p<i>, d<i>, or r<i>)", t)
	}
	idx, err := strconv.Atoi(t[1:])
	if err != nil || idx < 0 {
		return 0, 0, fmt.Errorf("bad target index in %q", t)
	}
	return role, idx, nil
}

// Hooks are the system-side effects a plan drives. Any hook may be nil;
// its events are then dropped (a system without links ignores degrades).
type Hooks struct {
	// Crash takes the instance down; Restore brings it back (empty).
	Crash   func(role Role, idx int)
	Restore func(role Role, idx int)
	// SetSlowdown multiplies the instance's pass durations; 1 restores
	// nominal speed.
	SetSlowdown func(role Role, idx int, factor float64)
	// SetLinkDegrade scales cross-instance bandwidth; 1 restores nominal.
	SetLinkDegrade func(frac float64)
	// CancelFrac aborts a fraction of in-flight requests using the given
	// seed to pick victims.
	CancelFrac func(frac float64, seed int64)

	// Fleet-level hooks (replica-granularity events).
	ReplicaCrash   func(idx int)
	ReplicaRestore func(idx int)
	// SetReplicaSlowdown slows every instance of a replica; 1 restores.
	SetReplicaSlowdown func(idx int, factor float64)
	// SetPartition cuts (true) or heals (false) the router→replica path.
	SetPartition func(idx int, partitioned bool)
}

// CancelVictims picks the requests one cancel event aborts: round(frac·n)
// of the n open ids, drawn by a PRNG seeded from the event and returned in
// ids order. Every system cancels through it, so a plan cancels the same
// requests on every system and every run.
func CancelVictims(ids []uint64, frac float64, seed int64) []uint64 {
	n := len(ids)
	k := min(int(math.Round(frac*float64(n))), n)
	if k <= 0 {
		return nil
	}
	picks := rand.New(rand.NewSource(seed)).Perm(n)[:k]
	sort.Ints(picks)
	victims := make([]uint64, k)
	for i, p := range picks {
		victims[i] = ids[p]
	}
	return victims
}

// Apply schedules the plan's events on the simulator. It must be called
// before the simulation runs (all event times are absolute).
func Apply(s *sim.Simulator, p *Plan, h Hooks) error {
	if p == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	for i, e := range p.Events {
		e := e
		switch e.Kind {
		case Crash:
			if h.Crash == nil {
				continue
			}
			s.At(e.At, func() { h.Crash(e.Role, e.Instance) })
			if e.Duration > 0 && h.Restore != nil {
				s.At(e.At.Add(e.Duration), func() { h.Restore(e.Role, e.Instance) })
			}
		case Slowdown:
			if h.SetSlowdown == nil {
				continue
			}
			s.At(e.At, func() { h.SetSlowdown(e.Role, e.Instance, e.Factor) })
			if e.Duration > 0 {
				s.At(e.At.Add(e.Duration), func() { h.SetSlowdown(e.Role, e.Instance, 1) })
			}
		case LinkDegrade:
			if h.SetLinkDegrade == nil {
				continue
			}
			s.At(e.At, func() { h.SetLinkDegrade(e.Factor) })
			if e.Duration > 0 {
				s.At(e.At.Add(e.Duration), func() { h.SetLinkDegrade(1) })
			}
		case Cancel:
			if h.CancelFrac == nil {
				continue
			}
			// Each cancel event gets its own derived seed so reordering
			// or removing other events does not change its victims.
			seed := p.Seed + int64(i)*1000003 + 1
			s.At(e.At, func() { h.CancelFrac(e.Factor, seed) })
		case ReplicaCrash:
			if h.ReplicaCrash == nil {
				continue
			}
			s.At(e.At, func() { h.ReplicaCrash(e.Instance) })
			if e.Duration > 0 && h.ReplicaRestore != nil {
				s.At(e.At.Add(e.Duration), func() { h.ReplicaRestore(e.Instance) })
			}
		case ReplicaSlow:
			if h.SetReplicaSlowdown == nil {
				continue
			}
			s.At(e.At, func() { h.SetReplicaSlowdown(e.Instance, e.Factor) })
			if e.Duration > 0 {
				s.At(e.At.Add(e.Duration), func() { h.SetReplicaSlowdown(e.Instance, 1) })
			}
		case ReplicaPartition:
			if h.SetPartition == nil {
				continue
			}
			s.At(e.At, func() { h.SetPartition(e.Instance, true) })
			if e.Duration > 0 {
				s.At(e.At.Add(e.Duration), func() { h.SetPartition(e.Instance, false) })
			}
		}
	}
	return nil
}
