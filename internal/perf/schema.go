package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// SchemaVersion is the trajectory file's schema number. Parse rejects
// files from a different major schema so the CI gate fails loudly instead
// of comparing incompatible shapes.
const SchemaVersion = 1

// Env is the environment fingerprint of one trajectory point. Raw ns/op
// numbers are only comparable when two fingerprints match (same CPU, same
// parallelism); derived ratio metrics stay comparable regardless.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel is the hardware model string (best-effort; empty when the
	// platform exposes none).
	CPUModel string `json:"cpu_model,omitempty"`
	// GitSHA is the commit the binary was built from (best-effort; empty
	// outside a git work tree).
	GitSHA string `json:"git_sha,omitempty"`
}

// Comparable reports whether raw per-op timings measured under e and o
// can be meaningfully compared: same architecture, CPU model and
// parallelism. Go patch version differences are tolerated.
func (e Env) Comparable(o Env) bool {
	return e.GOARCH == o.GOARCH &&
		e.CPUModel == o.CPUModel &&
		e.GOMAXPROCS == o.GOMAXPROCS
}

// CaptureEnv fingerprints the running process and host.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GitSHA:     gitSHA(),
	}
}

// cpuModel reads the hardware model string (Linux /proc/cpuinfo; other
// platforms return empty — the fingerprint then compares by GOARCH only).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitSHA returns the current HEAD commit, best-effort.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Result is one bench's measurement in a trajectory.
type Result struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	NsPerOp     float64
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics carries the custom units the bench attached with
	// b.ReportMetric (e.g. "events/op", "tasks/unit").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// MarshalJSON pins the ns_per_op key (the struct tag syntax cannot hold a
// slash, and "NsPerOp" would leak the Go name into the schema).
func (r Result) MarshalJSON() ([]byte, error) {
	type alias struct {
		Name        string             `json:"name"`
		N           int                `json:"n"`
		NsPerOp     float64            `json:"ns_per_op"`
		BytesPerOp  int64              `json:"bytes_per_op"`
		AllocsPerOp int64              `json:"allocs_per_op"`
		Metrics     map[string]float64 `json:"metrics,omitempty"`
	}
	return json.Marshal(alias(r))
}

// UnmarshalJSON mirrors MarshalJSON.
func (r *Result) UnmarshalJSON(data []byte) error {
	type alias struct {
		Name        string             `json:"name"`
		N           int                `json:"n"`
		NsPerOp     float64            `json:"ns_per_op"`
		BytesPerOp  int64              `json:"bytes_per_op"`
		AllocsPerOp int64              `json:"allocs_per_op"`
		Metrics     map[string]float64 `json:"metrics,omitempty"`
	}
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*r = Result(a)
	return nil
}

// Trajectory is one BENCH_<label>.json point: everything a later PR needs
// to decide whether it regressed.
type Trajectory struct {
	Schema int    `json:"schema"`
	Label  string `json:"label,omitempty"`
	Env    Env    `json:"env"`
	// Repeat is the number of measurement rounds each result is the
	// minimum of (RunOptions.Repeat). Zero in files written before the
	// field existed; see samples.
	Repeat int `json:"repeat,omitempty"`
	// Results holds the raw measurements in suite registration order.
	Results []Result `json:"results"`
	// Derived holds cross-benchmark metrics (ratios and rates) that stay
	// comparable across machines: engine_events_per_sec,
	// cached_solve_speedup, obs_enabled_overhead_pct, ...
	Derived map[string]float64 `json:"derived,omitempty"`
}

// legacyRepeat is the min-of-K behind trajectories that predate the
// Repeat field: `bwsched bench` has always defaulted to -repeat 3.
const legacyRepeat = 3

// samples is the number of rounds each of t's ns/op values is the
// minimum of.
func (t *Trajectory) samples() int {
	if t.Repeat == 0 {
		return legacyRepeat
	}
	return t.Repeat
}

// Result returns the named raw result.
func (t *Trajectory) Result(name string) (Result, bool) {
	for _, r := range t.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Write emits the trajectory as indented JSON (stable-schema, one object,
// trailing newline — committed files diff cleanly).
func (t *Trajectory) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// WriteFile writes the trajectory to path.
func (t *Trajectory) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Parse reads a trajectory and validates its schema.
func Parse(r io.Reader) (*Trajectory, error) {
	var t Trajectory
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("perf: malformed trajectory: %w", err)
	}
	if t.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: trajectory schema %d, this binary speaks %d", t.Schema, SchemaVersion)
	}
	if len(t.Results) == 0 {
		return nil, fmt.Errorf("perf: trajectory has no results")
	}
	return &t, nil
}

// ParseFile reads a trajectory file.
func ParseFile(path string) (*Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
