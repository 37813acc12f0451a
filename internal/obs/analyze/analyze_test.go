package analyze

import (
	"bytes"
	"strings"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/obs"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/sim"
)

// paperRun solves and simulates the paper's example tree under
// observation, returning the schedule and the live scope.
func paperRun(t *testing.T, stop rat.R) (*sched.Schedule, *obs.Scope) {
	t.Helper()
	tr := paperexample.Tree()
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sc := obs.New()
	if _, err := sim.Simulate(s, sim.Options{Stop: stop, Obs: sc}); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return s, sc
}

// TestPaperExampleConforms is the positive acceptance gate: a clean run
// of the paper's own example must pass every check, with no FAILs and
// the throughput estimator at ≥ 99% of η for every node.
func TestPaperExampleConforms(t *testing.T) {
	s, sc := paperRun(t, rat.FromInt(200))
	rep := Analyze(FromScope(sc), Options{Schedule: s, Stop: rat.FromInt(200)})

	if !rep.Healthy() {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("clean paper run failed conformance:\n%s", buf.String())
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", rep.Failed)
	}
	// Every substantive check must actually run (PASS, not SKIP) on a
	// fully observed simulator run with a schedule in hand.
	for _, name := range []string{
		"single-port", "throughput-conformance", "link-utilization",
		"buffer-watermark", "steady-state-onset", "startup-useful-work",
		"idle-while-backlogged", "compute-latency", "task-conservation",
	} {
		c := rep.Check(name)
		if c == nil {
			t.Fatalf("check %q missing from report", name)
		}
		if c.Verdict != Pass {
			t.Errorf("check %q: %s (%s), want PASS", name, c.Verdict, c.Detail)
		}
	}
	// The result-return check is the only legitimate SKIP on a
	// forward-only run; everything else must PASS.
	if c := rep.Check("result-return"); c == nil || c.Verdict != Skip {
		t.Errorf("result-return on a forward run: %+v, want SKIP", c)
	}
	if rep.Passed != len(rep.Checks)-1 {
		t.Errorf("Passed = %d of %d checks", rep.Passed, len(rep.Checks))
	}
}

// TestSeededFaultDetected is the negative acceptance gate: run the paper
// schedule, unchanged, against a platform where the P1→P4 link has
// doubled its communication time (3 → 6). The stale schedule keeps
// pushing η_{P1→P4} = 1/4 into a link that can now carry at most 1/6, so
// P1's send queue grows without bound (buffer-watermark must FAIL) and
// P4 — and P8 behind it — fall below their solver rate
// (throughput-conformance must FAIL).
func TestSeededFaultDetected(t *testing.T) {
	tr := paperexample.Tree()
	s, err := sched.Build(bwfirst.Solve(tr), sched.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p4 := tr.MustLookup("P4")
	slow, err := tr.WithCommTime(p4, rat.FromInt(6))
	if err != nil {
		t.Fatalf("WithCommTime: %v", err)
	}

	sc := obs.New()
	stop := rat.FromInt(360)
	_, err = sim.Simulate(s, sim.Options{
		Stop:    stop,
		Physics: []sim.PhysicsChange{{Tree: slow}},
		Obs:     sc,
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}

	rep := Analyze(FromScope(sc), Options{Schedule: s, Stop: stop})
	if rep.Healthy() {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("degraded link went undetected:\n%s", buf.String())
	}
	for _, name := range []string{"throughput-conformance", "buffer-watermark"} {
		c := rep.Check(name)
		if c == nil || c.Verdict != Fail {
			t.Errorf("check %q: got %+v, want FAIL", name, c)
		}
	}
	// The failing throughput evidence must name the starved subtree.
	tc := rep.Check("throughput-conformance")
	joined := strings.Join(tc.Evidence, "\n")
	if !strings.Contains(joined, "P4") {
		t.Errorf("throughput evidence does not mention P4:\n%s", joined)
	}
}

// TestOfflineRoundTrip: verdicts must survive the JSONL and Chrome-trace
// exports — the offline `bwsched analyze` path sees the same spans the
// live scope held (metrics-only checks degrade to SKIP).
func TestOfflineRoundTrip(t *testing.T) {
	s, sc := paperRun(t, rat.FromInt(200))
	live := Analyze(FromScope(sc), Options{Schedule: s, Stop: rat.FromInt(200)})

	exports := map[string]func(*bytes.Buffer) error{
		"jsonl":  func(b *bytes.Buffer) error { return sc.WriteSpansJSONL(b) },
		"chrome": func(b *bytes.Buffer) error { return sc.WriteChromeTrace(b) },
	}
	for name, export := range exports {
		var buf bytes.Buffer
		if err := export(&buf); err != nil {
			t.Fatalf("%s export: %v", name, err)
		}
		ev, err := ReadEvidence(&buf)
		if err != nil {
			t.Fatalf("%s ReadEvidence: %v", name, err)
		}
		if len(ev.Spans) != sc.SpanCount() {
			t.Fatalf("%s: %d spans read, scope has %d", name, len(ev.Spans), sc.SpanCount())
		}
		rep := Analyze(ev, Options{Schedule: s, Stop: rat.FromInt(200)})
		if rep.Failed != 0 {
			var b bytes.Buffer
			rep.WriteText(&b)
			t.Fatalf("%s round-trip failed checks:\n%s", name, b.String())
		}
		for _, c := range live.Checks {
			got := rep.Check(c.Name)
			if c.Name == "task-conservation" {
				// Files carry no metrics; the counter check must SKIP
				// rather than guess.
				if got.Verdict != Skip {
					t.Errorf("%s: task-conservation = %s, want SKIP offline", name, got.Verdict)
				}
				continue
			}
			if got.Verdict != c.Verdict {
				t.Errorf("%s: %s = %s offline, %s live", name, c.Name, got.Verdict, c.Verdict)
			}
		}
	}
}

// TestAnalyzeWithoutSchedule: schedule-free evidence still gets the
// single-port verdict; everything needing expected values skips.
func TestAnalyzeWithoutSchedule(t *testing.T) {
	_, sc := paperRun(t, rat.FromInt(40))
	rep := Analyze(FromScope(sc), Options{})
	if c := rep.Check("single-port"); c.Verdict != Pass {
		t.Errorf("single-port = %s (%s), want PASS", c.Verdict, c.Detail)
	}
	if c := rep.Check("throughput-conformance"); c.Verdict != Skip {
		t.Errorf("throughput-conformance = %s, want SKIP without a schedule", c.Verdict)
	}
	if rep.Failed != 0 {
		t.Errorf("Failed = %d without a schedule", rep.Failed)
	}
}

// TestSinglePortViolation: synthetic overlapping sends on one port track
// must fail the check, with the overlap in evidence.
func TestSinglePortViolation(t *testing.T) {
	ev := &Evidence{Spans: []obs.Span{
		{Name: "send P1", Track: "P0/S", Start: rat.Zero, End: rat.FromInt(2)},
		{Name: "send P2", Track: "P0/S", Start: rat.One, End: rat.FromInt(3)},
		{Name: "send P3", Track: "P0/S", Start: rat.FromInt(3), End: rat.FromInt(4)}, // touching is fine
	}}
	rep := Analyze(ev, Options{})
	c := rep.Check("single-port")
	if c.Verdict != Fail {
		t.Fatalf("single-port = %s, want FAIL", c.Verdict)
	}
	if len(c.Evidence) != 1 || !strings.Contains(c.Evidence[0], "send P2") {
		t.Errorf("evidence = %v, want exactly the P2 overlap", c.Evidence)
	}
}

func TestWindowCounts(t *testing.T) {
	times := []rat.R{
		rat.MustParse("1/2"), rat.One, rat.MustParse("3/2"), // window 0: [0,2)
		rat.FromInt(2),                   // window 1
		rat.FromInt(5),                   // window 2
		rat.FromInt(6), rat.FromInt(100), // out of range
	}
	got := windowCounts(times, rat.FromInt(2), 3)
	want := []int64{3, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowCounts = %v, want %v", got, want)
		}
	}
}

func TestSteadyOnset(t *testing.T) {
	cases := []struct {
		counts []int64
		quota  int64
		onset  int64
		ok     bool
	}{
		{[]int64{0, 2, 5, 5, 5}, 5, 2, true},
		{[]int64{5, 5, 5}, 5, 0, true},
		{[]int64{5, 5, 4}, 5, 3, false},
		{[]int64{0, 5, 0, 5}, 5, 3, true}, // relapse restarts the suffix
		{nil, 5, 0, false},
	}
	for i, c := range cases {
		onset, ok := steadyOnset(c.counts, c.quota)
		if onset != c.onset || ok != c.ok {
			t.Errorf("case %d: steadyOnset(%v, %d) = (%d, %v), want (%d, %v)",
				i, c.counts, c.quota, onset, ok, c.onset, c.ok)
		}
	}
}

func TestMaxHeld(t *testing.T) {
	// Two receives land before the first compute starts; the second
	// compute starts the instant its input arrives (never buffered).
	ne := nodeEvid{
		recv: []obs.Span{
			{Start: rat.Zero, End: rat.One},
			{Start: rat.One, End: rat.FromInt(2)},
			{Start: rat.FromInt(4), End: rat.FromInt(5)},
		},
		compute: []obs.Span{
			{Start: rat.FromInt(3), End: rat.FromInt(4)},
			{Start: rat.FromInt(4), End: rat.FromInt(5)},
			{Start: rat.FromInt(5), End: rat.FromInt(6)},
		},
	}
	if got := maxHeld(ne); got != 2 {
		t.Fatalf("maxHeld = %d, want 2", got)
	}
}

func TestBackloggedIdleTime(t *testing.T) {
	// A task arrives at t=1 and nothing runs until t=3: two units of
	// backlogged idleness.
	ne := nodeEvid{
		recv:    []obs.Span{{Start: rat.Zero, End: rat.One}},
		compute: []obs.Span{{Start: rat.FromInt(3), End: rat.FromInt(4)}},
	}
	if got := backloggedIdleTime(ne); !got.Equal(rat.FromInt(2)) {
		t.Fatalf("backloggedIdleTime = %s, want 2", got)
	}
	// Busy the whole while: no idleness.
	ne.send = []obs.Span{{Start: rat.One, End: rat.FromInt(3)}}
	if got := backloggedIdleTime(ne); !got.IsZero() {
		t.Fatalf("backloggedIdleTime = %s, want 0", got)
	}
}

// TestReportRendering pins the text format the CLI prints and the JSON
// round-trip.
func TestReportRendering(t *testing.T) {
	rep := &HealthReport{}
	rep.add(Check{Name: "alpha", Verdict: Pass, Detail: "fine"})
	rep.add(Check{Name: "beta", Verdict: Fail, Detail: "broken", Evidence: []string{"P4: starved"}})
	rep.add(Check{Name: "gamma", Verdict: Skip, Detail: "no data"})

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"conformance: 1 passed, 1 failed, 1 skipped",
		"PASS alpha",
		"FAIL beta",
		"P4: starved",
		"SKIP gamma",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	if rep.Healthy() {
		t.Error("Healthy() with a failed check")
	}

	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"verdict": "FAIL"`) {
		t.Errorf("JSON report missing verdict:\n%s", buf.String())
	}
}

// TestEvidenceSniffing: the reader must reject span-free input rather
// than return an empty evidence set that silently skips every check.
func TestEvidenceSniffing(t *testing.T) {
	if _, err := ReadEvidence(strings.NewReader(`{"type":"metric","name":"x"}` + "\n")); err == nil {
		t.Error("ReadEvidence accepted JSONL without spans")
	}
	if _, err := ReadEvidence(strings.NewReader("not json at all")); err == nil {
		t.Error("ReadEvidence accepted garbage")
	}
}

// TestFromScopeNil: a nil scope yields empty evidence and an all-SKIP
// report, not a panic.
func TestFromScopeNil(t *testing.T) {
	rep := Analyze(FromScope(nil), Options{})
	if rep.Failed != 0 || rep.Passed != 0 {
		t.Fatalf("nil-scope report: %+v", rep)
	}
}
