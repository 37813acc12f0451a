package sim

import (
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

func mustSchedule(t *testing.T, tr *tree.Tree) *sched.Schedule {
	t.Helper()
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDynamicRenegotiation is the paper's future-work measurement: the
// platform degrades at t=120, the root renegotiates at t=160, and the
// stale-schedule window must not lose task conservation — only rate.
func TestDynamicRenegotiation(t *testing.T) {
	before := paperexample.Tree()
	after, err := before.WithCommTime(before.MustLookup("P1"), rat.FromInt(4))
	if err != nil {
		t.Fatal(err)
	}
	sBefore := mustSchedule(t, before)
	sAfter := mustSchedule(t, after)
	run, err := Simulate(sBefore, Options{
		Stop:          rat.FromInt(400),
		Phases:        []Phase{{At: rat.FromInt(160), Schedule: sAfter}},
		Physics:       []PhysicsChange{{At: rat.FromInt(120), Tree: after}},
		SkipIntervals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats
	if st.Generated != st.Completed+st.Dropped {
		t.Fatalf("conservation lost: %d generated, %d completed, %d dropped",
			st.Generated, st.Completed, st.Dropped)
	}
	if err := run.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Old regime: 10/9 per unit; new regime: bwfirst(after) per unit.
	newRate := bwfirst.Solve(after).Throughput
	if !newRate.Less(rat.New(10, 9)) {
		t.Fatal("degradation did not lower the optimum; weak test")
	}
	// After renegotiation the per-window rate recovers to ≈ the new
	// optimum: compare a late window against it.
	late := run.Trace.CompletedIn(rat.FromInt(280), rat.FromInt(380))
	wantLate := newRate.Mul(rat.FromInt(100))
	diff := rat.FromInt(int64(late)).Sub(wantLate).Abs()
	if rat.FromInt(6).Less(diff) {
		t.Fatalf("late window %d tasks, want ≈%s", late, wantLate)
	}
	// The stale window [120,160) runs the old schedule on degraded
	// physics: its rate must not exceed the old optimum.
	stale := run.Trace.CompletedIn(rat.FromInt(120), rat.FromInt(160))
	oldIdeal := rat.New(10, 9).Mul(rat.FromInt(40))
	if rat.FromInt(int64(stale)).Sub(oldIdeal).IsPos() {
		t.Fatalf("stale window %d beats the old optimum %s", stale, oldIdeal)
	}
}

// TestDynamicValidation: Simulate rejects a malformed mid-run timeline.
func TestDynamicValidation(t *testing.T) {
	tr := paperexample.Tree()
	s := mustSchedule(t, tr)
	stop := rat.FromInt(10)
	other := tree.NewBuilder().Root("x", rat.One).MustBuild()
	cases := map[string]Options{
		"phase at 0":             {Stop: stop, Phases: []Phase{{At: rat.Zero, Schedule: s}}},
		"phase before 0":         {Stop: stop, Phases: []Phase{{At: rat.FromInt(-1), Schedule: s}}},
		"phases not increasing":  {Stop: stop, Phases: []Phase{{At: rat.One, Schedule: s}, {At: rat.One, Schedule: s}}},
		"phase without schedule": {Stop: stop, Phases: []Phase{{At: rat.One}}},
		"phase topology change":  {Stop: stop, Phases: []Phase{{At: rat.One, Schedule: mustSchedule(t, other)}}},
		"physics shape change":   {Stop: stop, Physics: []PhysicsChange{{At: rat.One, Tree: other}}},
		"physics not increasing": {Stop: stop, Physics: []PhysicsChange{{At: rat.One, Tree: tr}, {At: rat.One, Tree: tr}}},
		"physics before 0":       {Stop: stop, Physics: []PhysicsChange{{At: rat.FromInt(-1), Tree: tr}}},
		"tasks with phases":      {Tasks: 10, Phases: []Phase{{At: rat.One, Schedule: s}}},
		"phases without horizon": {Phases: []Phase{{At: rat.One, Schedule: s}}},
	}
	for name, opt := range cases {
		if _, err := Simulate(s, opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A phase whose pattern was too large to materialize.
	big := *s
	big.Nodes = append([]sched.NodeSchedule(nil), s.Nodes...)
	big.Nodes[tr.MustLookup("P1")].Pattern = nil
	if _, err := Simulate(s, Options{Stop: stop, Phases: []Phase{{At: rat.One, Schedule: &big}}}); err == nil {
		t.Error("unmaterialized phase pattern accepted")
	}
	// The same timeline, well formed, runs.
	if _, err := Simulate(s, Options{Stop: stop,
		Phases:  []Phase{{At: rat.One, Schedule: s}},
		Physics: []PhysicsChange{{At: rat.Zero, Tree: tr}}}); err != nil {
		t.Errorf("valid timeline rejected: %v", err)
	}
}
