package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks the output
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTinyWorkloads runs every workload on its tiny list, untraced and
// traced, against a freshly built daemon, and checks that the result
// line has exactly the four result keys, every named metric with its
// unit, and no failed output check.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bwsched")
	if out, err := exec.Command("go", "build", "-o", bin, "bwc/cmd/bwsched").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "3", "--trace", trace,
					"--tiny", "--daemon", bin, "--work", dir}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var top map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
					t.Fatal(err)
				}
				if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
					t.Fatalf("result keys: %s", lines[len(lines)-1])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks: %s\n%s", lines[len(lines)-1], lines[0])
				}
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d named", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (printed: %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// TestListsAreSeeded pins that a seed fixes every request body and that
// the deploy list changes with the seed.
func TestListsAreSeeded(t *testing.T) {
	for _, name := range []string{"deploy", "simulate", "adapt"} {
		a, err := buildWorkload(name, 7, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, 3, true)
		if len(a.List) != len(b.List) {
			t.Fatalf("%s: list lengths %d and %d", name, len(a.List), len(b.List))
		}
		for i := range a.List {
			if !bytes.Equal(a.List[i].Body, b.List[i].Body) {
				t.Fatalf("%s: request %d differs between builds", name, i)
			}
		}
	}
	a, _ := buildWorkload("deploy", 1, 3, true)
	b, _ := buildWorkload("deploy", 2, 3, true)
	same := true
	for i := range a.List {
		same = same && bytes.Equal(a.List[i].Body, b.List[i].Body)
	}
	if same {
		t.Fatal("deploy: seeds 1 and 2 built the same list")
	}
}
