package adapt

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bwc/internal/obs/analyze"
	"bwc/internal/paperexample"
	"bwc/internal/rat"
	"bwc/internal/tree"
	"bwc/internal/treegen"
	"bwc/internal/treeio"
)

var update = flag.Bool("update", false, "rewrite testdata/controller.golden")

// goldenFamilies and goldenSeeds pick the generated platforms the
// controller golden covers next to the Section 8 tree: 10-node trees, the
// size the adapt benchmark workload uses.
var (
	goldenFamilies = []treegen.Kind{treegen.Uniform, treegen.BandwidthLimited}
	goldenSeeds    = []int64{1, 2}
)

// renderSim writes the parts of a controller report that a refactor of
// the drift loop must not move: every adaptation's swap instants and
// re-solve cost, the verification horizon, the verdict, the pre/post
// conformance lines and the verification run's trace totals.
func renderSim(b *strings.Builder, rep *SimReport, err error) {
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
	}
	if rep == nil {
		return
	}
	for i, ad := range rep.Adaptations {
		fmt.Fprintf(b, "adaptation %d: drift=%s swap=%s resume=%s throughput=%s messages=%d visited=%d pruned=%v\n",
			i, ad.Drift.At, ad.SwapAt, ad.ResumeAt, ad.Throughput, ad.Messages, ad.Visited, ad.Pruned)
	}
	fmt.Fprintf(b, "stop=%s healed=%v\n", rep.Stop, rep.Healed)
	if rep.Run != nil {
		last, _ := rep.Run.Trace.LastCompletion()
		fmt.Fprintf(b, "trace: completed=%d intervals=%d last=%s end=%s\n",
			rep.Run.Trace.TotalCompleted(), len(rep.Run.Trace.Intervals), last, rep.Run.Trace.End)
	}
	for _, sec := range []struct {
		name string
		r    *analyze.HealthReport
	}{{"pre", rep.Pre}, {"post", rep.Post}} {
		if sec.r == nil {
			continue
		}
		fmt.Fprintf(b, "-- %s --\n", sec.name)
		_ = sec.r.WriteText(b)
	}
}

func renderChurn(b *strings.Builder, rep *ChurnReport, err error) {
	if rep == nil {
		renderSim(b, nil, err)
		return
	}
	renderSim(b, &rep.SimReport, err)
	fmt.Fprintf(b, "baseline=%s oracle=%s final=%s retention=%.6f collapsed=%v quarantined=%v\n",
		rep.Baseline, rep.Oracle, rep.Final, rep.Retention, rep.Collapsed, rep.Quarantined)
	for _, rs := range rep.ReSolves {
		fmt.Fprintf(b, "resolve at=%s recomputed=%d reused=%d pruned=%d delta=%d\n",
			rs.At, rs.Recomputed, rs.Reused, rs.Pruned, rs.Delta)
	}
	b.WriteString("-- log --\n")
	for _, l := range rep.Log {
		b.WriteString(l + "\n")
	}
}

// renderController runs every pinned controller scenario and renders the
// reports in a fixed order.
func renderController(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	adaptive := func(name string, tr *tree.Tree, opt Options) {
		fmt.Fprintf(&b, "=== adaptive %s ===\n", name)
		rep, err := SimulateAdaptive(mustSchedule(t, tr), opt)
		renderSim(&b, rep, err)
	}
	churn := func(name string, tr *tree.Tree, opt ChurnOptions) {
		fmt.Fprintf(&b, "=== churn %s ===\n", name)
		rep, err := SimulateChurn(mustSchedule(t, tr), opt)
		renderChurn(&b, rep, err)
	}
	paper := paperexample.Tree()

	adaptive("paper P1=4@120", paper, Options{
		Faults: []Fault{{At: rat.FromInt(120), Node: "P1", Kind: LinkSet, Value: rat.FromInt(4)}},
		Stop:   rat.FromInt(400),
	})
	adaptive("paper crash P2@100", paper, Options{
		Faults: []Fault{{At: rat.FromInt(100), Node: "P2", Kind: Crash}},
		Stop:   rat.FromInt(600),
	})
	churn("paper seed=6 rate=3", paper, ChurnOptions{
		Options: Options{Stop: rat.FromInt(600)},
		Churn:   ChurnConfig{Seed: 6, Rate: 3},
	})
	churn("paper seed=3 rate=40 crash=0.9", paper, ChurnOptions{
		Options: Options{Stop: rat.FromInt(600)},
		Churn:   ChurnConfig{Seed: 3, Rate: 40, CrashFraction: 0.9},
	})
	// The Section 8 tree as `bwsched example` prints it and the CLI
	// parses it back: the same platform with other node IDs, hence other
	// churn scripts. These are the churn-smoke scenarios.
	example, err := treeio.ParseTextString(treeio.TextString(paper))
	if err != nil {
		t.Fatal(err)
	}
	churn("example seed=6 rate=3", example, ChurnOptions{
		Options: Options{Stop: rat.FromInt(600)},
		Churn:   ChurnConfig{Seed: 6, Rate: 3},
	})
	churn("example seed=3 rate=40 crash=0.9", example, ChurnOptions{
		Options: Options{Stop: rat.FromInt(600)},
		Churn:   ChurnConfig{Seed: 3, Rate: 40, CrashFraction: 0.9},
	})
	for _, k := range goldenFamilies {
		for _, seed := range goldenSeeds {
			name := fmt.Sprintf("%s-10-s%d", k, seed)
			tr := treegen.Generate(k, 10, seed)
			adaptive(name, tr, Options{
				Faults: RandomFaults(tr, seed, 2, rat.FromInt(400)),
				Stop:   rat.FromInt(400),
			})
			churn(name, tr, ChurnOptions{
				Options: Options{Stop: rat.FromInt(600)},
				Churn:   ChurnConfig{Seed: seed},
			})
		}
	}
	return b.String()
}

// TestControllerGolden pins the simulated controllers' observable output
// on fixed scenarios, so a change to the adaptation loop that moves any
// swap instant, re-solve, verdict or churn log line shows up as a diff.
// Regenerate with: go test ./internal/adapt -run TestControllerGolden -update
func TestControllerGolden(t *testing.T) {
	got := renderController(t)
	path := filepath.Join("testdata", "controller.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("controller output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("controller output differs from %s in length: %d vs %d lines", path, len(gl), len(wl))
	}
}
