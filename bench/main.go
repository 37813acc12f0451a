// Command bench is bwschedd's benchmark: it starts the real daemon
// (`bwsched serve`) as a child process, drives it with one closed-loop
// client over one keep-alive connection through a fixed, seeded request
// list, checks every response against the in-process facade, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics of an
// in-process traced replay of the same list (--trace 1). See README.md.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	sh bench/run.sh --workload deploy --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	apiv1 "bwc/api/v1"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result: the accounting and
// environment behind the metrics.
type detail struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Env       map[string]string    `json:"env"`
	Succeeded int                  `json:"succeeded"`
	Refused   map[string]int       `json:"refused_by_code"`
	Failures  map[string]int       `json:"failed_by_code"`
	Tail      map[string]float64   `json:"latency_tail"`
	SetupS    []float64            `json:"setup_s_each"`
	TimedS    float64              `json:"timed_s"`
	OracleS   float64              `json:"oracle_s"`
	Slowest   []string             `json:"slowest"`
	Passes    []map[string]float64 `json:"passes"`
	Errors    []string             `json:"first_errors,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "deploy, simulate or adapt")
	seed := fs.Int64("seed", 1, "seed for the request list")
	seconds := fs.Int("seconds", 30, "run length: scales the request list (about one second of daemon time per unit)")
	trace := fs.Int("trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	bin := fs.String("daemon", "", "path of the bwsched binary")
	work := fs.String("work", ".bench_build/run", "working directory for daemon address files")
	tiny := fs.Bool("tiny", false, "self-test: a few requests per workload, one pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bin == "" {
		return errors.New("--daemon is required")
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	n := passes
	if *tiny {
		n = 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	w, err := buildWorkload(*name, *seed, *seconds, *tiny)
	if err != nil {
		return err
	}

	// Expected answers first, while no daemon competes for the CPUs.
	t0 := time.Now()
	answers, err := answerAll(w.plan())
	if err != nil {
		return err
	}
	oracleS := time.Since(t0).Seconds()

	e, err := measure(*bin, *work, w, answers, n)
	if err != nil {
		return err
	}
	det := detail{
		Workload: w.Name, Seed: *seed, Trace: *trace, Env: environment(),
		Succeeded: e.succeeded, Refused: e.refused, Failures: e.failures,
		SetupS: e.setupS, TimedS: e.timedS, OracleS: oracleS, Errors: e.errors, Slowest: e.slowest, Passes: e.passes,
		Tail: map[string]float64{"percentile": e.tailPct, "samples": float64(e.succeeded)},
	}
	res := result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed}
	if *trace == 1 {
		res.Metrics, err = replay(w, e.markers, e.timedS)
		if err != nil {
			return err
		}
	} else {
		res.Metrics = e.metrics
	}
	for _, line := range []any{det, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
	}
	return nil
}

// e2e is the outcome of the untraced daemon run.
type e2e struct {
	metrics           map[string]metric
	setupS            []float64
	timedS            float64
	attempted, failed int
	succeeded         int
	refused, failures map[string]int
	tailPct           float64
	markers           []string
	errors            []string
	slowest           []string
	passes            []map[string]float64
}

// measure runs the passes. Latencies, throughput and CPU pool every
// pass's timed requests, so the tail is the highest percentile the whole
// run supports; setup_s and peak_rss_mb, one reading per daemon
// lifetime, are medians over the passes. The traced replay uses the
// last pass's cache markers.
func measure(bin, work string, w *workload, answers map[string]answer, n int) (*e2e, error) {
	e := &e2e{refused: map[string]int{}, failures: map[string]int{}}
	var ok, rss, timed []float64
	var timedS, cpuS float64
	for i := 0; i < n; i++ {
		p, err := runPass(bin, work, w, answers, e)
		if err != nil {
			return nil, err
		}
		ok = append(ok, p.ok...)
		rss = append(rss, p.rssMB)
		timed = append(timed, p.timedS)
		e.setupS = append(e.setupS, p.setupS)
		timedS += p.timedS
		cpuS += p.cpuS
		e.markers, e.slowest = p.markers, p.slowest
		e.passes = append(e.passes, map[string]float64{
			"setup_s": p.setupS, "timed_s": p.timedS, "req_per_s": float64(len(p.ok)) / p.timedS,
			"latency_p50_ms": median(p.ok), "cpu_ms_per_req": 1e3 * p.cpuS / float64(len(w.List)), "peak_rss_mb": p.rssMB,
		})
	}
	e.succeeded = len(ok)
	tail, pct := tailLatency(ok)
	e.tailPct = pct
	e.timedS = median(timed)
	e.metrics = map[string]metric{
		"setup_s":         {median(e.setupS), "s"},
		"req_per_s":       {float64(len(ok)) / timedS, "1/s"},
		"latency_p50_ms":  {median(ok), "ms"},
		"latency_tail_ms": {tail, "ms"},
		"cpu_ms_per_req":  {1e3 * cpuS / float64(n*len(w.List)), "ms"},
		"peak_rss_mb":     {median(rss), "MB"},
	}
	return e, nil
}

// pass is one daemon lifetime: set-up, then the timed list.
type pass struct {
	setupS, timedS, cpuS, rssMB float64
	ok                          []float64 // latencies of successful requests, ms
	markers                     []string
	slowest                     []string
}

// runPass spawns a daemon, sets it up (listen, warm-up, priming), drives
// the timed list through it, stops it, and checks every response. Request
// accounting accumulates into e.
func runPass(bin, work string, w *workload, answers map[string]answer, e *e2e) (*pass, error) {
	p := &pass{}
	t0 := time.Now()
	d, err := startDaemon(bin, work)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for _, r := range w.setup() {
		status, body, err := d.do(r)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", r.Route, err)
		}
		got, err := decodeAnswer(r.Route, status, body)
		if err == nil {
			_, err = check(r, got, answers[string(r.Body)])
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", r.Route, err)
		}
		p.markers = append(p.markers, marker(r, body))
	}
	p.setupS = time.Since(t0).Seconds()

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make([]reply, len(w.List))
	lat := make([]float64, len(w.List))
	runtime.GC() // bwbench's own collection, now rather than mid-loop
	if err := d.resetPeakRSS(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i, r := range w.List {
		t := time.Now()
		st, body, err := d.do(r)
		lat[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		replies[i] = reply{st, body, err}
	}
	p.timedS = time.Since(start).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if p.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	p.cpuS = cpu1 - cpu0
	d.stop()
	d = nil

	for i, r := range w.List {
		rep := replies[i]
		e.attempted++
		p.markers = append(p.markers, marker(r, rep.body))
		var refused bool
		err := rep.err
		if err == nil {
			var got answer
			if got, err = decodeAnswer(r.Route, rep.status, rep.body); err == nil {
				refused, err = check(r, got, answers[string(r.Body)])
				if refused {
					e.refused[string(got.Code)]++
					continue
				}
			}
		}
		if err != nil {
			e.failed++
			e.failures[failureCode(rep.status, rep.body, rep.err)]++
			if len(e.errors) < 5 {
				e.errors = append(e.errors, fmt.Sprintf("#%d %v", i, err))
			}
			continue
		}
		p.ok = append(p.ok, lat[i])
	}
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return lat[idx[a]] > lat[idx[b]] })
	for _, i := range idx[:min(5, len(idx))] {
		p.slowest = append(p.slowest, fmt.Sprintf("%s %s %.1fms", w.List[i].Route, w.List[i].Label, lat[i]))
	}
	return p, nil
}

// marker returns a submit response's cache marker ("" for other routes
// and for error responses).
func marker(r request, body []byte) string {
	if r.Route != routeSubmit {
		return ""
	}
	var resp struct {
		Cache string `json:"cache"`
	}
	_ = json.Unmarshal(body, &resp)
	return resp.Cache
}

// failureCode classifies a failed request for the per-code accounting:
// the api/v1 error code of an error response, "transport" when no
// response arrived, "mismatch" for a 2xx answer that failed its check.
func failureCode(status int, body []byte, err error) string {
	switch {
	case err != nil:
		return "transport"
	case status/100 == 2:
		return "mismatch"
	}
	var env apiv1.Envelope
	if json.Unmarshal(body, &env) == nil && env.Error != nil {
		return string(env.Error.Code) + "-mismatch"
	}
	return fmt.Sprintf("http-%d", status)
}

// median of a sample (0 for an empty one).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64{}, v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailLatency is the highest percentile that still has at least ten
// samples above it: the 11th-largest value, reported with its
// percentile. Below eleven samples it is the minimum.
func tailLatency(v []float64) (value, percentile float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64{}, v...)
	sort.Float64s(s)
	i := max(len(s)-11, 0)
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// environment describes the daemon's runtime: both binaries are built
// by the same toolchain and inherit the same environment.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs": os.Getenv("GOMAXPROCS"),
		"gogc":       os.Getenv("GOGC"),
		"num_cpu":    fmt.Sprint(runtime.NumCPU()),
	}
	if env["gomaxprocs"] == "" {
		env["gomaxprocs"] = fmt.Sprint(runtime.NumCPU())
	}
	if env["gogc"] == "" {
		env["gogc"] = "100"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return env
}
