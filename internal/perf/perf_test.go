package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySuite is a fast real suite: two benches with custom metrics and one
// derived ratio, so a full Run completes in well under a second with a
// small benchtime.
func tinySuite() *Suite {
	s := NewSuite()
	s.Register(Bench{Name: "Spin", Short: true, Fn: func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n += i
		}
		_ = n
		b.ReportMetric(1, "spins/op")
	}})
	s.Register(Bench{Name: "Alloc", Fn: func(b *testing.B) {
		b.ReportAllocs()
		var sink []byte
		for i := 0; i < b.N; i++ {
			sink = make([]byte, 128)
		}
		_ = sink
	}})
	s.Derive("alloc_vs_spin", func(r map[string]Result) (float64, bool) {
		a, ok1 := r["Alloc"]
		sp, ok2 := r["Spin"]
		if !ok1 || !ok2 || sp.NsPerOp == 0 {
			return 0, false
		}
		return a.NsPerOp / sp.NsPerOp, true
	})
	return s
}

func runTiny(t *testing.T, opt RunOptions) *Trajectory {
	t.Helper()
	if opt.Benchtime == 0 {
		opt.Benchtime = 10 * time.Millisecond
	}
	tr, err := tinySuite().Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunCapturesResultsAndDerived(t *testing.T) {
	tr := runTiny(t, RunOptions{Label: "test"})
	if len(tr.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(tr.Results))
	}
	spin, ok := tr.Result("Spin")
	if !ok || spin.N == 0 || spin.NsPerOp <= 0 {
		t.Fatalf("Spin result %+v", spin)
	}
	if spin.Metrics["spins/op"] != 1 {
		t.Fatalf("custom metric lost: %v", spin.Metrics)
	}
	al, _ := tr.Result("Alloc")
	if al.AllocsPerOp < 1 || al.BytesPerOp < 128 {
		t.Fatalf("alloc accounting lost: %+v", al)
	}
	if _, ok := tr.Derived["alloc_vs_spin"]; !ok {
		t.Fatalf("derived metric missing: %v", tr.Derived)
	}
	if tr.Env.GoVersion == "" || tr.Env.GOMAXPROCS == 0 {
		t.Fatalf("env fingerprint empty: %+v", tr.Env)
	}
}

func TestRunShortAndFilter(t *testing.T) {
	tr := runTiny(t, RunOptions{Short: true})
	if len(tr.Results) != 1 || tr.Results[0].Name != "Spin" {
		t.Fatalf("short run selected %v", tr.Results)
	}
	// The derived metric needs both benches; a short run must omit it
	// rather than fail.
	if len(tr.Derived) != 0 {
		t.Fatalf("derived metric computed from a partial run: %v", tr.Derived)
	}
	tr = runTiny(t, RunOptions{Filter: regexp.MustCompile("^Alloc$")})
	if len(tr.Results) != 1 || tr.Results[0].Name != "Alloc" {
		t.Fatalf("filter selected %v", tr.Results)
	}
	if _, err := tinySuite().Run(RunOptions{Filter: regexp.MustCompile("nothing"), Benchtime: time.Millisecond}); err == nil {
		t.Fatal("empty selection must error")
	}
}

// TestRunRepeatKeepsMinimum: min-of-K noise rejection still yields one
// result per bench, and the kept allocation counts are the smallest seen
// (allocation counts are deterministic, so repeats must agree anyway).
func TestRunRepeatKeepsMinimum(t *testing.T) {
	tr := runTiny(t, RunOptions{Repeat: 3})
	if len(tr.Results) != 2 {
		t.Fatalf("repeat produced %d results, want 2", len(tr.Results))
	}
	al, _ := tr.Result("Alloc")
	if al.AllocsPerOp != 1 {
		t.Fatalf("Alloc allocs/op %d, want 1", al.AllocsPerOp)
	}
	if tr.Repeat != 3 {
		t.Fatalf("trajectory records repeat %d, want 3", tr.Repeat)
	}
}

func TestRunProfileCapture(t *testing.T) {
	dir := t.TempDir()
	runTiny(t, RunOptions{Short: true, ProfileDir: dir})
	for _, f := range []string{"Spin.cpu.pprof", "Spin.heap.pprof"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("profile %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	tr := runTiny(t, RunOptions{Label: "rt"})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != tr.Label || len(back.Results) != len(tr.Results) {
		t.Fatalf("round trip lost shape: %+v", back)
	}
	for i, r := range tr.Results {
		b := back.Results[i]
		if b.Name != r.Name || b.NsPerOp != r.NsPerOp || b.AllocsPerOp != r.AllocsPerOp ||
			b.BytesPerOp != r.BytesPerOp || b.N != r.N {
			t.Fatalf("result %d round trip: %+v vs %+v", i, b, r)
		}
	}
	if back.Derived["alloc_vs_spin"] != tr.Derived["alloc_vs_spin"] {
		t.Fatalf("derived round trip: %v vs %v", back.Derived, tr.Derived)
	}
	if back.Env != tr.Env {
		t.Fatalf("env round trip: %+v vs %+v", back.Env, tr.Env)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := Parse(strings.NewReader(`{"schema": 99, "results": [{"name":"x","n":1}]}`)); err == nil {
		t.Fatal("wrong schema version accepted")
	}
	if _, err := Parse(strings.NewReader(`{"schema": 1, "results": []}`)); err == nil {
		t.Fatal("empty trajectory accepted")
	}
}

// TestGoldenTrajectory pins the on-disk schema: the committed fixture
// must keep parsing, and its known values must survive the round trip.
// Regenerating it is a deliberate schema change, not a test fix.
func TestGoldenTrajectory(t *testing.T) {
	tr, err := ParseFile(filepath.Join("testdata", "BENCH_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Label != "golden" {
		t.Fatalf("label %q", tr.Label)
	}
	r, ok := tr.Result("EngineLoop")
	if !ok {
		t.Fatal("EngineLoop missing from golden fixture")
	}
	if r.NsPerOp != 123456.5 || r.AllocsPerOp != 42 || r.Metrics["events/op"] != 2048 {
		t.Fatalf("golden values drifted: %+v", r)
	}
	if tr.Derived["obs_enabled_overhead_pct"] != 4.2 {
		t.Fatalf("golden derived drifted: %v", tr.Derived)
	}
	if tr.Env.CPUModel != "Golden CPU @ 1.00GHz" || tr.Env.GitSHA == "" {
		t.Fatalf("golden env drifted: %+v", tr.Env)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewSuite()
	s.Register(Bench{Name: "A", Fn: func(*testing.B) {}})
	mustPanic(t, func() { s.Register(Bench{Name: "A", Fn: func(*testing.B) {}}) })
	mustPanic(t, func() { s.Register(Bench{Fn: func(*testing.B) {}}) })
	mustPanic(t, func() { s.Register(Bench{Name: "B"}) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
