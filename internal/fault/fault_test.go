package fault

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"windserve/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "crash:d0@15+10; slow:p1@10x1.5+20; degrade@20x0.25+30; cancel@12x0.2"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: Crash, Role: RoleDecode, Instance: 0, At: 15, Duration: 10},
		{Kind: Slowdown, Role: RolePrefill, Instance: 1, At: 10, Factor: 1.5, Duration: 20},
		{Kind: LinkDegrade, At: 20, Factor: 0.25, Duration: 30},
		{Kind: Cancel, At: 12, Factor: 0.2},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(p.Events), len(want))
	}
	for i, e := range p.Events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	// String must re-parse to the same plan.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	for i := range p.Events {
		if p2.Events[i] != p.Events[i] {
			t.Errorf("round-trip event %d = %+v, want %+v", i, p2.Events[i], p.Events[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"crash@10",           // crash needs a target
		"degrade:p0@10x0.5",  // degrade takes no target
		"cancel@10",          // cancel needs a factor
		"slow:d0@10x0.5",     // slowdown factor < 1
		"degrade@10x1.5",     // degrade factor > 1
		"cancel@10x0",        // cancel fraction must be positive
		"boom:d0@10",         // unknown kind
		"crash:x0@10",        // bad role
		"crash:d-1@10",       // bad index
		"crash:d0@-5",        // negative time
		"crash:d0@5+-1",      // negative duration
		"crash:d0",           // missing @time
		"slow:p0@tenx2",      // bad time
		"degrade@5xfast",     // bad factor
		"crash:p0@5+forever", // bad duration
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseSkipsEmptyEvents(t *testing.T) {
	p, err := Parse(" ; cancel@5x0.5 ;; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 1 || p.Events[0].Kind != Cancel {
		t.Fatalf("got %+v, want one cancel event", p.Events)
	}
}

func TestApplySchedulesAndRestores(t *testing.T) {
	s := sim.New()
	p := &Plan{Seed: 7, Events: []Event{
		{Kind: Crash, Role: RoleDecode, Instance: 1, At: 5, Duration: 3},
		{Kind: Slowdown, Role: RolePrefill, Instance: 0, At: 2, Factor: 2, Duration: 4},
		{Kind: LinkDegrade, At: 1, Factor: 0.5, Duration: 2},
		{Kind: Cancel, At: 4, Factor: 0.25},
	}}
	var log []string
	h := Hooks{
		Crash: func(role Role, idx int) {
			log = append(log, fmt.Sprintf("crash %s%d @%v", role, idx, s.Now()))
		},
		Restore: func(role Role, idx int) {
			log = append(log, fmt.Sprintf("restore %s%d @%v", role, idx, s.Now()))
		},
		SetSlowdown: func(role Role, idx int, f float64) {
			log = append(log, fmt.Sprintf("slow %s%d x%g @%v", role, idx, f, s.Now()))
		},
		SetLinkDegrade: func(f float64) {
			log = append(log, fmt.Sprintf("degrade x%g @%v", f, s.Now()))
		},
		CancelFrac: func(f float64, seed int64) {
			log = append(log, fmt.Sprintf("cancel %g seed=%d @%v", f, seed, s.Now()))
		},
	}
	if err := Apply(s, p, h); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	want := []string{
		"degrade x0.5 @1.000000s",
		"slow p0 x2 @2.000000s",
		"degrade x1 @3.000000s",
		"cancel 0.25 seed=3000017 @4.000000s",
		"crash d1 @5.000000s",
		"slow p0 x1 @6.000000s",
		"restore d1 @8.000000s",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v\nwant  %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
}

func TestApplyNilHooksAndPlan(t *testing.T) {
	s := sim.New()
	if err := Apply(s, nil, Hooks{}); err != nil {
		t.Fatal(err)
	}
	p := &Plan{Events: []Event{{Kind: Crash, Role: RolePrefill, At: 1}}}
	if err := Apply(s, p, Hooks{}); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("nil hooks scheduled %d events", s.Pending())
	}
}

func TestApplyValidates(t *testing.T) {
	s := sim.New()
	p := &Plan{Events: []Event{{Kind: Slowdown, Factor: 0.5, At: 1}}}
	if err := Apply(s, p, Hooks{SetSlowdown: func(Role, int, float64) {}}); err == nil {
		t.Fatal("Apply accepted an invalid plan")
	}
}

func TestParseReplicaRoundTrip(t *testing.T) {
	spec := "rcrash:r3@30+15; rslow:r1@10x2+20; rpart:r0@25+10"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: ReplicaCrash, Role: RoleReplica, Instance: 3, At: 30, Duration: 15},
		{Kind: ReplicaSlow, Role: RoleReplica, Instance: 1, At: 10, Factor: 2, Duration: 20},
		{Kind: ReplicaPartition, Role: RoleReplica, Instance: 0, At: 25, Duration: 10},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(p.Events), len(want))
	}
	for i, e := range p.Events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	for i := range p.Events {
		if p2.Events[i] != p.Events[i] {
			t.Errorf("round-trip event %d = %+v, want %+v", i, p2.Events[i], p.Events[i])
		}
	}
}

func TestParseReplicaErrors(t *testing.T) {
	for _, spec := range []string{
		"rcrash@10",       // replica crash needs a target
		"rcrash:p0@10",    // replica kinds take r<i>, not instance targets
		"rslow:d1@10x2",   // same, via slow
		"rpart:r0@10x0.5", // partition takes no factor
		"rslow:r0@10x0.5", // replica slowdown factor < 1
		"rslow:r0@10",     // replica slowdown needs a factor
		"crash:r0@10",     // instance kinds reject replica targets
		"slow:r2@10x2",    // same, via slow
		"rcrash:r-1@10",   // bad index
		"rcrash:rzero@10", // non-numeric index
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestValidateRejectsOverlappingWindows(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"crash:d0@10+5; crash:d0@12+5", false}, // windows intersect
		{"crash:d0@10; crash:d0@50+5", false},   // permanent overlaps everything later
		{"crash:d0@10+5; crash:d0@15+5", true},  // back-to-back is fine
		{"crash:d0@10+5; crash:d1@12+5", true},  // different instance
		{"crash:d0@10+5; crash:p0@12+5", true},  // different role
		{"crash:d0@10+5; rcrash:r0@12+5", true}, // instance vs replica space
		{"rcrash:r2@10+5; rcrash:r2@12+5", false},
		{"rpart:r1@10+5; rpart:r1@12+5", false},
		{"rpart:r1@10+5; rcrash:r1@12+5", true},  // partition and crash are separate windows
		{"slow:d0@10x2+5; slow:d0@12x2+5", true}, // slowdowns may overlap
	} {
		_, err := Parse(tc.spec)
		if tc.ok && err != nil {
			t.Errorf("Parse(%q) = %v, want ok", tc.spec, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Parse(%q) succeeded, want overlap error", tc.spec)
		}
	}
}

func TestValidateTargets(t *testing.T) {
	instPlan := mustParse(t, "crash:p1@10+5; slow:d2@10x2+5")
	if err := instPlan.ValidateTargets(2, 3, 0); err != nil {
		t.Errorf("in-range instance events rejected: %v", err)
	}
	if err := instPlan.ValidateTargets(1, 3, 0); err == nil {
		t.Error("p1 accepted with only 1 prefill instance")
	}
	if err := instPlan.ValidateTargets(2, 2, 0); err == nil {
		t.Error("d2 accepted with only 2 decode instances")
	}
	if err := instPlan.ValidateTargets(0, 0, 8); err == nil {
		t.Error("instance events accepted in a fleet-plan context")
	}

	repPlan := mustParse(t, "rcrash:r7@10+5; rpart:r0@30+5; degrade@40x0.5+5; cancel@50x0.1")
	if err := repPlan.ValidateTargets(0, 0, 8); err != nil {
		t.Errorf("in-range replica events rejected: %v", err)
	}
	if err := repPlan.ValidateTargets(0, 0, 7); err == nil {
		t.Error("r7 accepted with only 7 replicas")
	}
	if err := repPlan.ValidateTargets(2, 2, 0); err == nil {
		t.Error("replica events accepted in a single-testbed context")
	}
}

func TestApplyReplicaHooks(t *testing.T) {
	s := sim.New()
	p := mustParse(t, "rcrash:r2@5+3; rslow:r0@2x2+4; rpart:r1@1+6")
	var log []string
	h := Hooks{
		ReplicaCrash: func(idx int) {
			log = append(log, fmt.Sprintf("rcrash r%d @%v", idx, s.Now()))
		},
		ReplicaRestore: func(idx int) {
			log = append(log, fmt.Sprintf("rrestore r%d @%v", idx, s.Now()))
		},
		SetReplicaSlowdown: func(idx int, f float64) {
			log = append(log, fmt.Sprintf("rslow r%d x%g @%v", idx, f, s.Now()))
		},
		SetPartition: func(idx int, part bool) {
			log = append(log, fmt.Sprintf("rpart r%d %v @%v", idx, part, s.Now()))
		},
	}
	if err := Apply(s, p, h); err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	want := []string{
		"rpart r1 true @1.000000s",
		"rslow r0 x2 @2.000000s",
		"rcrash r2 @5.000000s",
		"rslow r0 x1 @6.000000s",
		"rpart r1 false @7.000000s",
		"rrestore r2 @8.000000s",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v\nwant  %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
}

func mustParse(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

// TestParseRejectsNonFinite: strconv.ParseFloat accepts NaN and Inf, and
// NaN slips past every range comparison, so each non-finite time,
// duration, factor or end time must be rejected by name.
func TestParseRejectsNonFinite(t *testing.T) {
	for spec, want := range map[string]string{
		"crash:d0@NaN":          "non-finite time",
		"crash:d0@1+NaN":        "non-finite duration",
		"slow:d0@1xNaN+5":       "non-finite factor",
		"slow:d0@1xInf+5":       "non-finite factor",
		"degrade@-Infx0.5+5":    "non-finite time",
		"rcrash:r0@1e308+1e308": "non-finite end time",
	} {
		_, err := Parse(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", spec, err, want)
		}
	}
}

// FuzzParse: Parse never panics, and every plan it accepts is finite and
// passes Validate on its own.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"crash:d0@15+10; slow:p0@10x1.5+20; degrade@20x0.25+30; cancel@12x0.2",
		"rcrash:r3@30+15; rslow:r1@10x2+20; rpart:r0@25+10",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		for _, e := range p.Events {
			for _, x := range []float64{float64(e.At), e.Duration.Seconds(), e.Factor, float64(e.At.Add(e.Duration))} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("Parse(%q) accepted non-finite event %+v", spec, e)
				}
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a plan Validate rejects: %v", spec, err)
		}
	})
}

// TestCancelVictims pins the one victim rule every system uses:
// round(frac·n) distinct ids, returned in ids order, the same for the
// same seed, none for an empty set or a fraction that rounds to zero.
func TestCancelVictims(t *testing.T) {
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(100 + 3*i)
	}
	v := CancelVictims(ids, 0.2, 7)
	if len(v) != 8 {
		t.Fatalf("%d victims of 40 at 0.2, want 8", len(v))
	}
	pos := -1
	for _, id := range v {
		next := slices.Index(ids, id)
		if next <= pos {
			t.Fatalf("victims %v are not distinct members of ids in ids order", v)
		}
		pos = next
	}
	if again := CancelVictims(ids, 0.2, 7); !slices.Equal(again, v) {
		t.Fatalf("same seed drew %v then %v", v, again)
	}
	if all := CancelVictims(ids, 1, 7); !slices.Equal(all, ids) {
		t.Fatalf("fraction 1 drew %v", all)
	}
	if v := CancelVictims(ids, 0.01, 7); v != nil {
		t.Fatalf("fraction rounding to zero drew %v", v)
	}
	if v := CancelVictims(nil, 1, 7); v != nil {
		t.Fatalf("empty set drew %v", v)
	}
}
