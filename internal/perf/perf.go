// Package perf is the repository's performance-trajectory subsystem: a
// programmatic benchmark harness that runs a registered suite through
// testing.Benchmark, captures an environment fingerprint, and emits a
// stable-schema BENCH_<label>.json file — one trajectory point per PR —
// plus a Compare API with per-metric regression thresholds that CI gates
// on.
//
// The harness exists because the ROADMAP's raw-speed campaign needs its
// measurements to be observable: 30+ Benchmark* functions reproduce the
// paper's numbers, but without a machine-readable record per PR none of
// the paper-scale targets (million-node solves, 10^8 engine events per
// minute, sub-5% enabled-instrumentation overhead) can be tracked, let
// alone gated. A trajectory file records raw ns/op, B/op and allocs/op
// for every suite entry, the custom units benchmarks attach via
// b.ReportMetric, and derived cross-benchmark metrics (engine events per
// second, cached-solve speedup, obs overhead percent) that stay
// comparable across machines.
//
// Layering: this package depends only on the standard library, so every
// other package — including the facade — can register benchmarks with it;
// the default suite over the repository's key paths lives in
// internal/perf/suite, and the CLI wiring in cmd/bwsched.
package perf

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"testing"
	"time"
)

// Bench is one registered suite entry.
type Bench struct {
	// Name identifies the benchmark in the trajectory file. Stable names
	// are the contract: Compare matches old and new results by name.
	Name string
	// Short marks the bench as part of the short suite (the CI gate runs
	// only short entries to bound job time).
	Short bool
	// Fn is the benchmark body, written exactly like a testing benchmark.
	Fn func(b *testing.B)
}

// DeriveFn computes one derived metric from the raw results (keyed by
// bench name). ok=false omits the metric (e.g. when a constituent bench
// was filtered out of the run).
type DeriveFn func(results map[string]Result) (value float64, ok bool)

// Suite is an ordered benchmark registry with derived-metric hooks.
type Suite struct {
	mu      sync.Mutex
	benches []Bench
	derived []derivedEntry
}

type derivedEntry struct {
	name string
	fn   DeriveFn
}

// NewSuite returns an empty suite.
func NewSuite() *Suite { return &Suite{} }

// Register appends a bench to the suite. Duplicate names panic: the
// trajectory schema keys results by name.
func (s *Suite) Register(b Bench) {
	if b.Name == "" || b.Fn == nil {
		panic("perf: bench needs a name and a body")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, have := range s.benches {
		if have.Name == b.Name {
			panic(fmt.Sprintf("perf: bench %q registered twice", b.Name))
		}
	}
	s.benches = append(s.benches, b)
}

// Derive registers a derived metric computed from the raw results after
// the run. Derived metrics are ratios or rates by convention — unlike raw
// ns/op they stay meaningful across machines, so Compare still gates on
// them when the environment fingerprints differ.
func (s *Suite) Derive(name string, fn DeriveFn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.derived = append(s.derived, derivedEntry{name: name, fn: fn})
}

// Names returns the registered bench names in registration order.
func (s *Suite) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.benches))
	for i, b := range s.benches {
		out[i] = b.Name
	}
	return out
}

// RunOptions configures a suite run.
type RunOptions struct {
	// Label names the trajectory (e.g. "PR6"); stored in the file.
	Label string
	// Benchtime overrides the per-bench measurement target (the testing
	// package's default is 1s). Zero keeps the default.
	Benchtime time.Duration
	// Short restricts the run to benches registered with Short: true.
	Short bool
	// Filter, when non-nil, restricts the run to matching bench names.
	Filter *regexp.Regexp
	// Repeat measures each bench this many times and records the
	// fastest sample (and the smallest allocation counts). Noise on a
	// shared host is one-sided — a run is only ever slowed down, never
	// sped up — so min-of-K is the robust point estimate a regression
	// gate can trust. Repeats run as interleaved rounds over the whole
	// selection (A B C, A B C, ...) rather than back-to-back (A A, B B,
	// ...), so benches whose ratio is a derived metric sample the same
	// noise regimes. 0 or 1 measures once.
	Repeat int
	// ProfileDir, when non-empty, captures a CPU and a heap profile per
	// bench into <ProfileDir>/<name>.cpu.pprof and <name>.heap.pprof
	// (slashes in bench names become underscores; only the first repeat
	// is profiled).
	ProfileDir string
	// Logf, when non-nil, receives one progress line per bench.
	Logf func(format string, args ...any)
}

// benchtimeInit wires testing.Init exactly once so the test.benchtime
// flag exists outside `go test` binaries (testing.Benchmark reads it).
var benchtimeInit sync.Once

// setBenchtime points testing.Benchmark's measurement target at d.
// Returns false when the flag is unavailable (never the case on a stock
// toolchain; kept as a soft failure so the harness still measures with
// the 1s default rather than refusing to run).
func setBenchtime(d time.Duration) bool {
	benchtimeInit.Do(func() {
		if flag.Lookup("test.benchtime") == nil {
			testing.Init()
		}
	})
	f := flag.Lookup("test.benchtime")
	if f == nil {
		return false
	}
	return f.Value.Set(d.String()) == nil
}

// Run measures every selected bench and assembles a Trajectory. The
// environment fingerprint is captured from the running process; the git
// SHA is best-effort (empty outside a work tree).
func (s *Suite) Run(opt RunOptions) (*Trajectory, error) {
	if opt.Benchtime > 0 {
		if !setBenchtime(opt.Benchtime) {
			return nil, fmt.Errorf("perf: cannot set benchtime %s", opt.Benchtime)
		}
	}
	if opt.ProfileDir != "" {
		if err := os.MkdirAll(opt.ProfileDir, 0o755); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	benches := append([]Bench(nil), s.benches...)
	derived := append([]derivedEntry(nil), s.derived...)
	s.mu.Unlock()

	tr := &Trajectory{
		Schema:  SchemaVersion,
		Label:   opt.Label,
		Env:     CaptureEnv(),
		Derived: map[string]float64{},
	}
	var selected []Bench
	for _, b := range benches {
		if opt.Short && !b.Short {
			continue
		}
		if opt.Filter != nil && !opt.Filter.MatchString(b.Name) {
			continue
		}
		selected = append(selected, b)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("perf: no benches selected")
	}

	results := make([]Result, len(selected))
	rounds := opt.Repeat
	if rounds < 1 {
		rounds = 1
	}
	tr.Repeat = rounds
	for round := 0; round < rounds; round++ {
		for i, b := range selected {
			roundOpt := opt
			if round > 0 {
				roundOpt.ProfileDir = "" // profile the first round only
			}
			res, err := s.measure(b, roundOpt)
			if err != nil {
				return nil, err
			}
			if round == 0 {
				results[i] = res
				continue
			}
			best := &results[i]
			if res.NsPerOp < best.NsPerOp {
				res.AllocsPerOp = min(res.AllocsPerOp, best.AllocsPerOp)
				res.BytesPerOp = min(res.BytesPerOp, best.BytesPerOp)
				res.Metrics = mergeMetrics(res.Metrics, best.Metrics)
				*best = res
			} else {
				best.AllocsPerOp = min(best.AllocsPerOp, res.AllocsPerOp)
				best.BytesPerOp = min(best.BytesPerOp, res.BytesPerOp)
				best.Metrics = mergeMetrics(best.Metrics, res.Metrics)
			}
		}
	}
	byName := map[string]Result{}
	for _, res := range results {
		tr.Results = append(tr.Results, res)
		byName[res.Name] = res
		if opt.Logf != nil {
			opt.Logf("bench %-28s %12.0f ns/op  %8d B/op  %6d allocs/op\n",
				res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}
	for _, d := range derived {
		if v, ok := d.fn(byName); ok {
			tr.Derived[d.name] = v
		}
	}
	return tr, nil
}

// measure runs one bench (optionally under CPU/heap profiling) and
// converts the testing result into the schema's Result.
func (s *Suite) measure(b Bench, opt RunOptions) (Result, error) {
	var cpuF *os.File
	if opt.ProfileDir != "" {
		var err error
		cpuF, err = os.Create(filepath.Join(opt.ProfileDir, profileName(b.Name)+".cpu.pprof"))
		if err != nil {
			return Result{}, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return Result{}, fmt.Errorf("perf: cpu profile for %s: %w", b.Name, err)
		}
	}
	br := testing.Benchmark(b.Fn)
	if cpuF != nil {
		pprof.StopCPUProfile()
		if err := cpuF.Close(); err != nil {
			return Result{}, err
		}
		heapF, err := os.Create(filepath.Join(opt.ProfileDir, profileName(b.Name)+".heap.pprof"))
		if err != nil {
			return Result{}, err
		}
		runtime.GC() // up-to-date allocation stats in the heap profile
		if err := pprof.WriteHeapProfile(heapF); err != nil {
			heapF.Close()
			return Result{}, fmt.Errorf("perf: heap profile for %s: %w", b.Name, err)
		}
		if err := heapF.Close(); err != nil {
			return Result{}, err
		}
	}
	if br.N == 0 {
		return Result{}, fmt.Errorf("perf: bench %s ran zero iterations", b.Name)
	}
	res := Result{
		Name:        b.Name,
		N:           br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if len(br.Extra) > 0 {
		res.Metrics = make(map[string]float64, len(br.Extra))
		for k, v := range br.Extra {
			res.Metrics[k] = v
		}
	}
	return res, nil
}

// mergeMetrics folds a repeat round's custom metrics into the kept
// result, taking the element-wise minimum. Custom metrics in this
// harness are either deterministic (events/op, messages — rounds agree
// and min is a no-op) or time-derived and noise-inflated (overhead-pct —
// contention only ever adds), so the minimum is the same robust estimate
// min-of-K ns/op is.
func mergeMetrics(kept, other map[string]float64) map[string]float64 {
	for k, v := range other {
		if have, ok := kept[k]; !ok || v < have {
			if kept == nil {
				kept = map[string]float64{}
			}
			kept[k] = v
		}
	}
	return kept
}

// profileName flattens a bench name into a filename component.
func profileName(name string) string {
	out := []byte(name)
	for i, c := range out {
		if c == '/' || c == ' ' {
			out[i] = '_'
		}
	}
	return string(out)
}

// SortedDerivedNames returns the trajectory's derived-metric names in
// lexical order (JSON maps have no order; reports want a stable one).
func (t *Trajectory) SortedDerivedNames() []string {
	names := make([]string, 0, len(t.Derived))
	for k := range t.Derived {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
