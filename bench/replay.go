package main

// The traced replay: the same warm-up, priming and timed list, run
// in-process through the layers' public functions in the order the
// daemon's handlers call them, with a timer and an allocation counter
// around each call. Spans live in the benchmark, not in the program.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/bwfirst"
	"bwc/internal/tree"
)

// tenant is the replay's view of one daemon session: the memoized solve
// and schedule of one platform fingerprint.
type tenant struct {
	res *bwc.Result
	s   *bwc.Schedule
}

// replayer accumulates per-layer busy time (ns), allocated bytes and
// counts under the per-layer metric names.
type replayer struct {
	tenants map[string]*tenant
	busy    map[string]time.Duration
	alloc   map[string]uint64
	count   map[string]float64
	sample  []metrics.Sample
	pairs   int
}

func newReplayer() *replayer {
	return &replayer{
		tenants: map[string]*tenant{},
		busy:    map[string]time.Duration{},
		alloc:   map[string]uint64{},
		count:   map[string]float64{},
		sample:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (rp *replayer) heapAllocs() uint64 {
	metrics.Read(rp.sample)
	return rp.sample[0].Value.Uint64()
}

// span times fn under layer name and charges the bytes it allocated.
func (rp *replayer) span(name string, fn func()) time.Duration {
	a0 := rp.heapAllocs()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rp.busy[name] += d
	rp.alloc[name] += rp.heapAllocs() - a0
	return d
}

// encode writes a response the way the daemon's writeJSON does.
func (rp *replayer) encode(v any) {
	var buf bytes.Buffer
	rp.span("server.codec", func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	rp.count["server.resp_bytes"] += float64(buf.Len())
}

// refuse encodes the error envelope for a facade error.
func (rp *replayer) refuse(err error) {
	rp.count["requests.refused"]++
	rp.encode(apiv1.Envelope{Error: apiv1.NewError(err)})
}

// platform decodes a request body and parses and fingerprints its
// platform, as every handler does first.
func (rp *replayer) platform(body []byte, req any, text func() (string, string)) (*bwc.Tree, string, error) {
	var err error
	rp.span("server.codec", func() { err = json.Unmarshal(body, req) })
	if err != nil {
		return nil, "", err
	}
	var t *bwc.Tree
	platformText, uniform := text()
	rp.span("treeio.parse", func() { t, err = platformOf(platformText, uniform) })
	if err != nil {
		return nil, "", err
	}
	var fp string
	rp.span("session.fingerprint", func() { fp = bwc.PlatformFingerprint(t) })
	return t, fp, nil
}

// solve runs BW-First cold.
func (rp *replayer) solve(t *bwc.Tree) *bwc.Result {
	var res *bwc.Result
	rp.span("bwfirst.solve", func() { res = bwc.Solve(t) })
	rp.count["bwfirst.visited"] += float64(res.VisitedCount)
	return res
}

// build materializes a schedule, counting the pattern slots it
// allocated and whether some active node's Ψ was too large to
// materialize (the platforms the simulator refuses).
func (rp *replayer) build(res *bwc.Result) (*bwc.Schedule, error) {
	var s *bwc.Schedule
	var err error
	rp.span("sched.build", func() { s, err = bwc.BuildSchedule(res) })
	if err != nil {
		return nil, err
	}
	refused := false
	for i := range s.Nodes {
		rp.count["sched.pattern_slots"] += float64(len(s.Nodes[i].Pattern))
		refused = refused || (s.Nodes[i].Active && s.Nodes[i].Pattern == nil)
	}
	if refused {
		rp.count["sched.refused"]++
	}
	return s, nil
}

// ensure returns the tenant's schedule, solving and building on a memo
// miss as Session.BuildSchedule does.
func (rp *replayer) ensure(t *bwc.Tree, fp string) (*tenant, error) {
	tn := rp.tenants[fp]
	if tn == nil {
		tn = &tenant{}
		rp.tenants[fp] = tn
	}
	if tn.res == nil {
		tn.res = rp.solve(t)
	}
	if tn.s == nil {
		s, err := rp.build(tn.res)
		if err != nil {
			return nil, err
		}
		tn.s = s
	}
	return tn, nil
}

// do replays one request. marker is the cache marker the daemon answered
// a submit with; it decides what the tenant memo held, because the
// shard's LRU and ghost state are the daemon's own.
func (rp *replayer) do(r request, marker string) error {
	switch r.Route {
	case routeSubmit:
		return rp.submit(r, marker)
	case routeSimulate, routeAnalyze:
		return rp.simulate(r)
	case routeAdaptive:
		return rp.adaptive(r)
	case routeChurn:
		return rp.churn(r)
	}
	return fmt.Errorf("unknown route %q", r.Route)
}

func (rp *replayer) submit(r request, marker string) error {
	var req apiv1.SubmitRequest
	t, fp, err := rp.platform(r.Body, &req, func() (string, string) { return req.Platform, req.UniformReturn })
	if err != nil {
		return err
	}
	switch marker {
	case apiv1.CacheHit:
		rp.count["session.hits"]++
	case apiv1.CacheMiss:
		rp.count["session.misses"]++
		delete(rp.tenants, fp)
	case apiv1.CacheReprimed:
		// A fresh session primed with the retained result: the schedule
		// is rebuilt, the solve is not.
		rp.count["session.reprimed"]++
		if tn := rp.tenants[fp]; tn != nil {
			tn.s = nil
		}
	default:
		return fmt.Errorf("submit answered with cache marker %q", marker)
	}
	tn, err := rp.ensure(t, fp)
	if err != nil {
		rp.refuse(err)
		return nil
	}
	resp := apiv1.SubmitResponse{
		APIVersion: apiv1.Version, Fingerprint: fp, Cache: marker,
		Throughput: tn.res.Throughput.String(), ThroughputFloat: tn.res.Throughput.Float64(),
		Nodes: t.Len(), Visited: tn.res.VisitedCount,
	}
	var dep []byte
	rp.span("sched.marshal", func() {
		resp.TreePeriod = tn.s.TreePeriod().String()
		resp.RootlessPeriod = tn.s.RootlessPeriod().String()
		resp.StartupBound = tn.s.MaxStartupBound().String()
		dep, err = bwc.MarshalDeployment(tn.s)
	})
	if err != nil {
		rp.refuse(err)
		return nil
	}
	rp.count["sched.deploy_bytes"] += float64(len(dep))
	rp.count["sched.marshals"]++
	resp.Deployment = dep
	if t.HasResultReturn() {
		resp.ResultReturn = true
		rp.span("bwfirst.solve", func() {
			if ft, err := bwc.FoldedThroughput(t); err == nil {
				resp.FoldedThroughput = ft.String()
			}
		})
	}
	rp.encode(resp)
	return nil
}

// simulate replays /simulate and /analyze: the engine run under an
// observer, paired with the same run unobserved, then the analyzer.
func (rp *replayer) simulate(r request) error {
	var (
		sreq    apiv1.SimulateRequest
		areq    apiv1.AnalyzeRequest
		req     any = &sreq
		text        = func() (string, string) { return sreq.Platform, sreq.UniformReturn }
		analyze     = true
	)
	if r.Route == routeAnalyze {
		req, text = &areq, func() (string, string) { return areq.Platform, "" }
	}
	t, fp, err := rp.platform(r.Body, req, text)
	if err != nil {
		return err
	}
	var horizon bwc.Option
	if r.Route == routeAnalyze {
		stop, err := bwc.ParseRat(areq.Stop)
		if err != nil {
			return err
		}
		horizon = bwc.WithStop(stop)
	} else {
		horizon, analyze = bwc.WithTasks(sreq.Tasks), sreq.Analyze
	}
	tn, err := rp.ensure(t, fp)
	if err != nil {
		rp.refuse(err)
		return nil
	}
	ob := bwc.NewObserver()
	var run *bwc.Run
	var withObs, bare time.Duration
	observed := func() {
		withObs = rp.span("engine.run", func() { run, err = bwc.Simulate(tn.s, horizon, bwc.WithObserver(ob)) })
	}
	unobserved := func() {
		t0 := time.Now()
		_, _ = bwc.Simulate(tn.s, horizon)
		bare = time.Since(t0)
	}
	// Alternate the pair's order so neither side always runs on a warmer
	// cache or heap.
	if rp.pairs++; rp.pairs%2 == 0 {
		observed()
		unobserved()
	} else {
		unobserved()
		observed()
	}
	if err != nil {
		rp.refuse(err)
		return nil
	}
	rp.busy["obs.overhead"] += withObs - bare
	rp.count["engine.tasks"] += float64(run.Stats.Completed)
	rp.count["engine.intervals"] += float64(ob.SpanCount())
	var rep *bwc.HealthReport
	if analyze {
		rp.span("analyze", func() { rep = bwc.AnalyzeRun(run) })
	}
	if r.Route == routeAnalyze {
		rp.encode(apiv1.AnalyzeResponse{APIVersion: apiv1.Version, Fingerprint: fp, Report: *wireReport(rep)})
		return nil
	}
	st := run.Stats
	rp.encode(apiv1.SimulateResponse{
		APIVersion: apiv1.Version, Fingerprint: fp, Throughput: st.Throughput.String(),
		StopAt: st.StopAt.String(), Generated: st.Generated, Completed: st.Completed,
		SteadyOK: st.SteadyOK, WindDown: st.WindDown.String(), MaxBuffered: st.MaxHeld,
		ResultsReturned: st.ResultsReturned, Report: wireReport(rep),
	})
	return nil
}

func wireReport(rep *bwc.HealthReport) *apiv1.Report {
	if rep == nil {
		return nil
	}
	out := &apiv1.Report{Healthy: rep.Failed == 0, Passed: rep.Passed, Failed: rep.Failed, Skipped: rep.Skipped}
	for _, c := range rep.Checks {
		out.Checks = append(out.Checks, apiv1.Verdict{Name: c.Name, Verdict: string(c.Verdict), Detail: c.Detail})
	}
	return out
}

func (rp *replayer) adaptive(r request) error {
	var req apiv1.AdaptiveRequest
	t, fp, err := rp.platform(r.Body, &req, func() (string, string) { return req.Platform, "" })
	if err != nil {
		return err
	}
	opts, err := adaptiveOptions(req)
	if err != nil {
		return err
	}
	tn, err := rp.ensure(t, fp)
	if err != nil {
		rp.refuse(err)
		return nil
	}
	var rep *bwc.AdaptReport
	rp.span("adapt.run", func() {
		rep, err = bwc.SimulateAdaptive(tn.s, append(opts, bwc.WithObserver(bwc.NewObserver()))...)
	})
	if rep != nil {
		rp.count["adapt.resolves"] += float64(len(rep.Adaptations))
		rp.adapted(fp, len(rep.Adaptations))
	}
	if err != nil {
		rp.refuse(err)
		return nil
	}
	final := tn.res.Throughput
	if n := len(rep.Adaptations); n > 0 {
		final = rep.Adaptations[n-1].Throughput
	}
	rp.encode(apiv1.AdaptiveResponse{
		APIVersion: apiv1.Version, Fingerprint: fp, Adaptations: len(rep.Adaptations),
		Healed: rep.Healed, FinalThroughput: final.String(), Pre: wireReport(rep.Pre), Post: wireReport(rep.Post),
	})
	return nil
}

// adapted mirrors Session.reprime: a run that re-negotiated drops the
// stale platform's memo, so its next request solves and builds again.
func (rp *replayer) adapted(fp string, adaptations int) {
	if adaptations > 0 {
		delete(rp.tenants, fp)
	}
}

func (rp *replayer) churn(r request) error {
	var req apiv1.ChurnRequest
	t, fp, err := rp.platform(r.Body, &req, func() (string, string) { return req.Platform, "" })
	if err != nil {
		return err
	}
	dur, err := bwc.ParseRat(req.Duration)
	if err != nil {
		return err
	}
	tn, err := rp.ensure(t, fp)
	if err != nil {
		rp.refuse(err)
		return nil
	}
	var rep *bwc.ChurnReport
	rp.span("adapt.run", func() {
		rep, err = bwc.SimulateChurn(tn.s, bwc.WithChurn(bwc.ChurnConfig{Seed: req.Seed}),
			bwc.WithStop(dur), bwc.WithObserver(bwc.NewObserver()))
	})
	if rep != nil {
		rp.count["adapt.resolves"] += float64(len(rep.ReSolves))
		rp.incremental(tn.s, rep.Adaptations)
		rp.adapted(fp, len(rep.Adaptations))
	}
	if err != nil {
		rp.refuse(err)
		return nil
	}
	rp.encode(apiv1.ChurnResponse{
		APIVersion: apiv1.Version, Fingerprint: fp, Baseline: rep.Baseline.String(),
		Oracle: rep.Oracle.String(), Final: rep.Final.String(), Retention: rep.Retention,
		Cycles: len(rep.ReSolves), Quarantined: rep.Quarantined, Collapsed: rep.Collapsed, Healed: rep.Healed,
	})
	return nil
}

// incremental re-runs each churn cycle's spine re-solve on its
// (previous, measured) platform pair, which the controller runs inside
// SimulateChurn where no span can reach it.
func (rp *replayer) incremental(base *bwc.Schedule, ads []bwc.Adaptation) {
	prev := base
	for _, ad := range ads {
		cur := ad.Schedule
		if cur == nil || cur.Res == nil {
			continue
		}
		dirty, err := tree.DiffWeights(prev.Tree, cur.Tree)
		if err == nil {
			var pruned []tree.NodeID
			for id := 0; id < cur.Tree.Len(); id++ {
				if cur.Res.PrunedNode(tree.NodeID(id)) {
					pruned = append(pruned, tree.NodeID(id))
				}
			}
			rp.span("bwfirst.incremental", func() { _, _ = bwfirst.SolveIncremental(prev.Res, cur.Tree, dirty, pruned) })
		}
		prev = cur
	}
}

// replay runs the whole plan and returns the per-layer metrics. markers
// are the untraced run's submit cache markers, by plan position, and
// e2eSeconds its timed-phase wall time, which the replay of the list is
// compared with.
func replay(w *workload, markers []string, e2eSeconds float64) (map[string]metric, error) {
	rp := newReplayer()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	plan := w.plan()
	listStart := len(plan) - len(w.List)
	var listStarted time.Time
	for i, r := range plan {
		if i == listStart {
			listStarted = time.Now()
		}
		if err := rp.do(r, markers[i]); err != nil {
			return nil, fmt.Errorf("replay %s #%d: %w", r.Route, i, err)
		}
	}
	listSeconds := time.Since(listStarted).Seconds()
	runtime.ReadMemStats(&ms1)
	n := float64(len(plan))
	us := func(name string) float64 { return float64(rp.busy[name].Nanoseconds()) / 1e3 / n }
	kb := func(bytes float64, per float64) float64 { return bytes / 1024 / max(per, 1) }
	return map[string]metric{
		"server.codec_us":        {us("server.codec"), "us"},
		"server.resp_kb":         {kb(rp.count["server.resp_bytes"], n), "KB"},
		"treeio.parse_us":        {us("treeio.parse"), "us"},
		"session.fingerprint_us": {us("session.fingerprint"), "us"},
		"session.hits":           {rp.count["session.hits"], "count"},
		"session.misses":         {rp.count["session.misses"], "count"},
		"session.reprimed":       {rp.count["session.reprimed"], "count"},
		"bwfirst.solve_us":       {us("bwfirst.solve"), "us"},
		"bwfirst.visited":        {rp.count["bwfirst.visited"], "count"},
		"bwfirst.incremental_us": {us("bwfirst.incremental"), "us"},
		"sched.build_us":         {us("sched.build"), "us"},
		"sched.pattern_slots":    {rp.count["sched.pattern_slots"], "count"},
		"sched.refused":          {rp.count["sched.refused"], "count"},
		"sched.marshal_us":       {us("sched.marshal"), "us"},
		"sched.deploy_kb":        {kb(rp.count["sched.deploy_bytes"], rp.count["sched.marshals"]), "KB"},
		"engine.run_us":          {us("engine.run"), "us"},
		"engine.tasks":           {rp.count["engine.tasks"], "count"},
		"engine.intervals":       {rp.count["engine.intervals"], "count"},
		"engine.alloc_kb":        {kb(float64(rp.alloc["engine.run"]), n), "KB"},
		"obs.overhead_us":        {us("obs.overhead"), "us"},
		"analyze.us":             {us("analyze"), "us"},
		"analyze.alloc_kb":       {kb(float64(rp.alloc["analyze"]), n), "KB"},
		"adapt.run_us":           {us("adapt.run"), "us"},
		"adapt.resolves":         {rp.count["adapt.resolves"], "count"},
		"adapt.alloc_kb":         {kb(float64(rp.alloc["adapt.run"]), n), "KB"},
		"requests.refused":       {rp.count["requests.refused"], "count"},
		"go.gc_cycles":           {float64(ms1.NumGC - ms0.NumGC), "count"},
		"go.alloc_kb_per_req":    {kb(float64(ms1.TotalAlloc-ms0.TotalAlloc), n), "KB"},
		"trace.replay_s":         {listSeconds, "s"},
		"trace.e2e_s":            {e2eSeconds, "s"},
		"trace.overhead_pct":     {100 * (listSeconds/e2eSeconds - 1), "%"},
	}, nil
}
