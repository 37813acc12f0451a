package perf

import (
	"bytes"
	"strings"
	"testing"
)

// mkTraj builds a trajectory by hand; env defaults to the running host so
// two mkTraj results are environment-comparable.
func mkTraj(results []Result, derived map[string]float64) *Trajectory {
	return &Trajectory{Schema: SchemaVersion, Env: CaptureEnv(), Results: results, Derived: derived}
}

func findDelta(t *testing.T, c *Comparison, metric string) Delta {
	t.Helper()
	for _, d := range c.Deltas {
		if d.Metric == metric {
			return d
		}
	}
	t.Fatalf("delta %q not found in %+v", metric, c.Deltas)
	return Delta{}
}

func TestCompareUnchangedPasses(t *testing.T) {
	base := mkTraj([]Result{{Name: "X", N: 100, NsPerOp: 50_000, AllocsPerOp: 100}}, nil)
	c := Compare(base, base, DefaultThresholds())
	if !c.Ok() {
		t.Fatalf("identical trajectories flagged: %+v", c)
	}
}

func TestCompareNsRegression(t *testing.T) {
	old := mkTraj([]Result{{Name: "X", N: 100, NsPerOp: 50_000, AllocsPerOp: 100}}, nil)
	slow := mkTraj([]Result{{Name: "X", N: 100, NsPerOp: 60_000, AllocsPerOp: 100}}, nil)
	c := Compare(old, slow, DefaultThresholds())
	if c.Ok() || !findDelta(t, c, "X ns/op").Regression {
		t.Fatalf("+20%% ns/op not flagged: %+v", c)
	}
	// Within threshold: +8% passes at 10%.
	ok := mkTraj([]Result{{Name: "X", N: 100, NsPerOp: 54_000, AllocsPerOp: 100}}, nil)
	if c := Compare(old, ok, DefaultThresholds()); !c.Ok() {
		t.Fatalf("+8%% flagged at a 10%% threshold: %+v", c)
	}
}

func TestCompareNoiseFloor(t *testing.T) {
	// 50ns benches jitter by multiples; the floor must skip them.
	old := mkTraj([]Result{{Name: "Tiny", N: 1e6, NsPerOp: 50}}, nil)
	new := mkTraj([]Result{{Name: "Tiny", N: 1e6, NsPerOp: 200}}, nil)
	c := Compare(old, new, DefaultThresholds())
	if !c.Ok() {
		t.Fatalf("sub-floor bench gated: %+v", c)
	}
	if d := findDelta(t, c, "Tiny ns/op"); d.Skipped == "" {
		t.Fatalf("sub-floor bench not marked skipped: %+v", d)
	}
}

func TestCompareAllocRegressionIsPortable(t *testing.T) {
	old := mkTraj([]Result{{Name: "X", NsPerOp: 50_000, AllocsPerOp: 100}}, nil)
	worse := mkTraj([]Result{{Name: "X", NsPerOp: 50_000, AllocsPerOp: 150}}, nil)
	worse.Env.CPUModel = "Some Other CPU" // timings incomparable...
	c := Compare(old, worse, DefaultThresholds())
	if c.EnvMatch {
		t.Fatal("env mismatch not detected")
	}
	if !findDelta(t, c, "X allocs/op").Regression {
		t.Fatalf("...but the alloc gate must still fire: %+v", c)
	}
	// +1 alloc of slack: 5 -> 6 passes even though +20% > 10%.
	old = mkTraj([]Result{{Name: "X", NsPerOp: 50_000, AllocsPerOp: 5}}, nil)
	small := mkTraj([]Result{{Name: "X", NsPerOp: 50_000, AllocsPerOp: 6}}, nil)
	if c := Compare(old, small, DefaultThresholds()); !c.Ok() {
		t.Fatalf("one-alloc slack not honored: %+v", c)
	}
}

func TestCompareEnvMismatchSkipsTimings(t *testing.T) {
	old := mkTraj([]Result{{Name: "X", NsPerOp: 50_000, AllocsPerOp: 10}}, nil)
	new := mkTraj([]Result{{Name: "X", NsPerOp: 500_000, AllocsPerOp: 10}}, nil)
	new.Env.GOMAXPROCS = old.Env.GOMAXPROCS + 7
	c := Compare(old, new, DefaultThresholds())
	if c.EnvMatch || !c.Ok() {
		t.Fatalf("cross-environment timings must not gate: %+v", c)
	}
	if d := findDelta(t, c, "X ns/op"); d.Skipped != "environment mismatch" {
		t.Fatalf("skip reason %q", d.Skipped)
	}
}

// TestCompareMedianNormalization: a uniform slowdown across the suite is
// the host's weather, not a regression — Normalize divides the median
// drift out of every ns/op gate. A localized slowdown sticks out from
// the median and still fails, and portable gates (allocs) fire either
// way.
func TestCompareMedianNormalization(t *testing.T) {
	old := mkTraj([]Result{
		{Name: "A", NsPerOp: 100_000, AllocsPerOp: 10},
		{Name: "B", NsPerOp: 200_000, AllocsPerOp: 10},
		{Name: "C", NsPerOp: 300_000, AllocsPerOp: 10},
		{Name: "X", NsPerOp: 50_000, AllocsPerOp: 10},
	}, nil)
	th := DefaultThresholds()
	th.Normalize = true

	// Everything +30%: a loaded host, not four regressions. The alloc
	// jump on X is real and must survive normalization.
	loaded := mkTraj([]Result{
		{Name: "A", NsPerOp: 130_000, AllocsPerOp: 10},
		{Name: "B", NsPerOp: 260_000, AllocsPerOp: 10},
		{Name: "C", NsPerOp: 390_000, AllocsPerOp: 10},
		{Name: "X", NsPerOp: 65_000, AllocsPerOp: 50},
	}, nil)
	c := Compare(old, loaded, th)
	if c.MedianDrift < 0.29 || c.MedianDrift > 0.31 {
		t.Fatalf("median drift %v, want ~0.30", c.MedianDrift)
	}
	for _, name := range []string{"A", "B", "C", "X"} {
		if d := findDelta(t, c, name+" ns/op"); d.Regression {
			t.Fatalf("uniform drift gated as a regression: %+v", d)
		}
	}
	if !findDelta(t, c, "X allocs/op").Regression {
		t.Fatalf("portable alloc gate must survive normalization: %+v", c)
	}

	// Steady host, X alone +30%: the residual beyond the (near-zero)
	// median drift fires.
	local := mkTraj([]Result{
		{Name: "A", NsPerOp: 101_000, AllocsPerOp: 10},
		{Name: "B", NsPerOp: 200_000, AllocsPerOp: 10},
		{Name: "C", NsPerOp: 298_000, AllocsPerOp: 10},
		{Name: "X", NsPerOp: 65_000, AllocsPerOp: 10},
	}, nil)
	c = Compare(old, local, th)
	if d := findDelta(t, c, "X ns/op"); !d.Regression {
		t.Fatalf("localized regression normalized away: %+v", c)
	}
	if findDelta(t, c, "A ns/op").Regression || findDelta(t, c, "B ns/op").Regression {
		t.Fatalf("steady benches flagged: %+v", c)
	}

	// Fewer than three shared benches: no meaningful median, gates fall
	// back to raw Rel.
	c = Compare(
		mkTraj([]Result{{Name: "X", NsPerOp: 50_000}}, nil),
		mkTraj([]Result{{Name: "X", NsPerOp: 65_000}}, nil), th)
	if c.MedianDrift != 0 || !findDelta(t, c, "X ns/op").Regression {
		t.Fatalf("two-bench fallback broken: %+v", c)
	}
}

// TestCompareInsufficientSamples: with fewer than three shared benches
// there is no host-drift median, so an ns/op verdict needs min-of-3 on
// both sides. A single-sample run reports the gap instead of failing;
// allocs/op, being deterministic, still gates.
func TestCompareInsufficientSamples(t *testing.T) {
	withRepeat := func(k int, ns float64, allocs int64) *Trajectory {
		tr := mkTraj([]Result{{Name: "X", NsPerOp: ns, AllocsPerOp: allocs}}, nil)
		tr.Repeat = k
		return tr
	}
	th := DefaultThresholds()
	th.Normalize = true

	c := Compare(withRepeat(1, 50_000, 10), withRepeat(1, 65_000, 10), th)
	if d := findDelta(t, c, "X ns/op"); !c.Ok() || d.Skipped != "insufficient samples" {
		t.Fatalf("single-sample ns/op gated: %+v", c)
	}
	c = Compare(withRepeat(3, 50_000, 10), withRepeat(1, 65_000, 10), th)
	if d := findDelta(t, c, "X ns/op"); d.Skipped != "insufficient samples" {
		t.Fatalf("min-of-3 on one side only is not enough evidence: %+v", c)
	}
	c = Compare(withRepeat(1, 50_000, 10), withRepeat(1, 50_000, 50), th)
	if !findDelta(t, c, "X allocs/op").Regression {
		t.Fatalf("alloc gate must not depend on samples: %+v", c)
	}
	c = Compare(withRepeat(3, 50_000, 10), withRepeat(3, 65_000, 10), th)
	if !findDelta(t, c, "X ns/op").Regression {
		t.Fatalf("min-of-3 regression not flagged: %+v", c)
	}
	// Trajectories that predate the field count as min-of-3.
	c = Compare(withRepeat(0, 50_000, 10), withRepeat(0, 65_000, 10), th)
	if !findDelta(t, c, "X ns/op").Regression {
		t.Fatalf("legacy trajectories lost their ns/op gate: %+v", c)
	}
	// Three shared benches give the gate its own evidence.
	three := func(x float64) *Trajectory {
		tr := mkTraj([]Result{
			{Name: "A", NsPerOp: 100_000}, {Name: "B", NsPerOp: 200_000},
			{Name: "C", NsPerOp: 300_000}, {Name: "X", NsPerOp: x},
		}, nil)
		tr.Repeat = 1
		return tr
	}
	if c := Compare(three(50_000), three(65_000), th); !findDelta(t, c, "X ns/op").Regression {
		t.Fatalf("shared-bench regression skipped: %+v", c)
	}
}

func TestCompareMissingBench(t *testing.T) {
	old := mkTraj([]Result{
		{Name: "Kept", NsPerOp: 50_000},
		{Name: "Dropped", NsPerOp: 50_000},
	}, nil)
	new := mkTraj([]Result{{Name: "Kept", NsPerOp: 50_000}}, nil)

	th := DefaultThresholds()
	c := Compare(old, new, th)
	if !c.Ok() || len(c.Missing) != 1 || c.Missing[0] != "Dropped" {
		t.Fatalf("short-mode subset must pass but report the gap: %+v", c)
	}
	th.RequireAll = true
	if c := Compare(old, new, th); c.Ok() {
		t.Fatal("RequireAll must flag the dropped bench")
	}
}

func TestCompareDerivedFloorsAndCeilings(t *testing.T) {
	old := mkTraj([]Result{{Name: "X", NsPerOp: 50_000}},
		map[string]float64{"speedup": 900, "overhead_pct": 4})
	new := mkTraj([]Result{{Name: "X", NsPerOp: 50_000}},
		map[string]float64{"speedup": 5, "overhead_pct": 22})
	th := DefaultThresholds()
	th.Min = map[string]float64{"speedup": 10}
	th.Max = map[string]float64{"overhead_pct": 10}
	c := Compare(old, new, th)
	if c.Regressions != 2 {
		t.Fatalf("want 2 derived regressions, got %+v", c)
	}
	if !findDelta(t, c, "derived speedup").Regression ||
		!findDelta(t, c, "derived overhead_pct").Regression {
		t.Fatalf("derived gates not attributed: %+v", c.Deltas)
	}

	// Derived metric missing from the new run: gap, regression only
	// under RequireAll.
	bare := mkTraj([]Result{{Name: "X", NsPerOp: 50_000}}, nil)
	c = Compare(old, bare, th)
	if !c.Ok() || len(c.Missing) != 2 {
		t.Fatalf("missing derived metrics: %+v", c)
	}
	th.RequireAll = true
	if c := Compare(old, bare, th); c.Regressions != 2 {
		t.Fatalf("RequireAll on missing derived: %+v", c)
	}
}

func TestCompareTextReport(t *testing.T) {
	old := mkTraj([]Result{{Name: "X", NsPerOp: 50_000, AllocsPerOp: 10}}, nil)
	new := mkTraj([]Result{{Name: "X", NsPerOp: 70_000, AllocsPerOp: 10}}, nil)
	c := Compare(old, new, DefaultThresholds())
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL X ns/op") || !strings.Contains(out, "regressions: 1") {
		t.Fatalf("report:\n%s", out)
	}
}
