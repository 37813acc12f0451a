package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"bwc"
	apiv1 "bwc/api/v1"
)

// Route names, one per api/v1 endpoint the workloads drive.
const (
	routeSubmit   = "submit"
	routeSimulate = "simulate"
	routeAnalyze  = "analyze"
	routeAdaptive = "adaptive"
	routeChurn    = "churn"
)

var routePaths = map[string]string{
	routeSubmit:   apiv1.PathPrefix + "/platforms",
	routeSimulate: apiv1.PathPrefix + "/simulate",
	routeAnalyze:  apiv1.PathPrefix + "/analyze",
	routeAdaptive: apiv1.PathPrefix + "/adaptive",
	routeChurn:    apiv1.PathPrefix + "/churn",
}

// request is one api/v1 call: the route and the exact JSON body the
// daemon receives. Label names the platform in the detail line. Pin marks the paper's Section-8 tree, whose optimal
// throughput must read 10/9 wherever the response carries it.
type request struct {
	Route string
	Label string
	Body  []byte
	Pin   bool
}

// workload is the full, seeded request plan of one run: Prime submits
// the workload's fixed platforms and Warm drives the Section-8 tree
// through every route; both belong to set-up. List is the timed phase.
type workload struct {
	Name  string
	Warm  []request
	Prime []request
	List  []request
}

// setup is the set-up part of the plan: warm-up, then priming.
func (w *workload) setup() []request {
	return append(append([]request{}, w.Warm...), w.Prime...)
}

// plan is the whole plan in the order the daemon receives it.
func (w *workload) plan() []request {
	return append(w.setup(), w.List...)
}

// platform is one generated platform body plus the uniform result-return
// time applied to it (empty for forward-only platforms).
type platform struct {
	Label  string
	Text   string
	Return string
	Pin    bool
}

func paperPlatform() platform {
	return platform{Label: "section8", Text: bwc.FormatPlatform(bwc.PaperExampleTree()), Pin: true}
}

func genPlatform(kind bwc.PlatformKind, n int, genSeed int64) platform {
	return platform{
		Label: fmt.Sprintf("%s-%d-s%d", kind, n, genSeed),
		Text:  bwc.FormatPlatform(bwc.GeneratePlatform(kind, n, genSeed)),
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func submitReq(p platform) request {
	return request{Route: routeSubmit, Label: p.Label, Pin: p.Pin, Body: mustJSON(apiv1.SubmitRequest{
		Platform: p.Text, UniformReturn: p.Return,
	})}
}

func simulateReq(p platform, tasks int) request {
	return request{Route: routeSimulate, Label: fmt.Sprintf("%s/%d", p.Label, tasks), Pin: p.Pin, Body: mustJSON(apiv1.SimulateRequest{
		Platform: p.Text, Tasks: tasks, Analyze: true, UniformReturn: p.Return,
	})}
}

func analyzeReq(p platform, stop string) request {
	return request{Route: routeAnalyze, Label: p.Label, Pin: p.Pin, Body: mustJSON(apiv1.AnalyzeRequest{
		Platform: p.Text, Stop: stop,
	})}
}

func churnReq(p platform, seed int64, duration string) request {
	return request{Route: routeChurn, Label: fmt.Sprintf("%s/%d", p.Label, seed), Pin: p.Pin, Body: mustJSON(apiv1.ChurnRequest{
		Platform: p.Text, Seed: seed, Duration: duration,
	})}
}

// adaptiveReq scripts bwc.RandomFaults on the wire. A link slowdown by a
// factor becomes "degrade-link" to the scaled absolute time, the only
// link form api/v1 carries; node slowdowns map one to one.
func adaptiveReq(p platform, faultSeed int64, nFaults int, stop int64) request {
	t, err := bwc.ParsePlatformString(p.Text)
	if err != nil {
		panic(err)
	}
	var specs []apiv1.FaultSpec
	for _, f := range bwc.RandomFaults(t, faultSeed, nFaults, bwc.RatInt(stop)) {
		id, _ := t.Lookup(f.Node)
		spec := apiv1.FaultSpec{At: f.At.String(), Node: f.Node}
		switch f.Kind.String() {
		case "link-scale":
			spec.Kind, spec.Value = "degrade-link", t.CommTime(id).Mul(f.Value).String()
		case "link-restore":
			spec.Kind = "restore-link"
		case "node-scale":
			spec.Kind, spec.Value = "slow-node", f.Value.String()
		case "node-restore":
			spec.Kind = "restore-node"
		default:
			panic("bench: RandomFaults produced " + f.Kind.String())
		}
		specs = append(specs, spec)
	}
	return request{Route: routeAdaptive, Label: fmt.Sprintf("%s/%d", p.Label, faultSeed), Pin: p.Pin, Body: mustJSON(apiv1.AdaptiveRequest{
		Platform: p.Text, Stop: fmt.Sprint(stop), Faults: specs,
	})}
}

// warmup drives the Section-8 tree once through every route, so each
// handler and each layer has run before the timed phase starts.
func warmup() []request {
	p := paperPlatform()
	return []request{
		submitReq(p),
		simulateReq(p, 100),
		analyzeReq(p, "60"),
		adaptiveReq(p, 7, 1, 200),
		churnReq(p, 5, "300"),
	}
}

// Families whose cold schedule build is cheap (well under 2 ms at 200
// nodes) and families whose Ψ patterns reach millions of slots.
var (
	lightKinds = []bwc.PlatformKind{bwc.Uniform, bwc.BandwidthLimited, bwc.DeepChain, bwc.WideStar, bwc.SwitchHeavy}
	heavyKinds = []bwc.PlatformKind{bwc.ComputeLimited, bwc.SETI}
)

// passes is how many times a run sets the daemon up and drives the
// timed list through it.
const passes = 3

// units sizes one pass: the lists are built so one unit takes about a
// second of daemon time on a 2-CPU Xeon, and a run of s seconds spreads
// s units over its passes.
func units(seconds int) int {
	return max(seconds/passes, 1)
}

// buildWorkload returns the request plan of one workload. The same
// (name, seed, seconds, tiny) always yields byte-identical bodies.
func buildWorkload(name string, seed int64, seconds int, tiny bool) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "deploy":
		return deployWorkload(rng, seconds, tiny), nil
	case "simulate":
		return simulateWorkload(rng, seconds, tiny), nil
	case "adapt":
		return adaptWorkload(rng, seconds, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want deploy, simulate or adapt)", name)
}

// shardCapacity is bwsched serve's default LRU bound on tenant sessions.
const shardCapacity = 64

// deployWorkload submits distinct platforms cold, re-submits each one
// warm from a sliding window, then revisits the platforms the LRU shard
// evicted so they come back through the ghost re-prime path.
//
// The light platforms are drawn from the seed. The large-Ψ platforms
// come from fixed generator seeds: the cold build of one such platform
// ranges from 25 ms to 2.3 s depending on its generator seed, so drawing
// them from the run seed would make the run's total a lottery over a
// handful of draws.
func deployWorkload(rng *rand.Rand, seconds int, tiny bool) *workload {
	sizes, perCell, window := []int{12, 48, 192}, 5, min(4*units(seconds), 60)
	heavySizes, heavySeeds := []int{10, 25}, []int64{1, 2, 3, 4}
	if tiny {
		sizes, perCell, window = []int{12}, 1, 2
		heavySizes, heavySeeds = []int{10}, []int64{3}
	}
	var light []platform
	for _, k := range lightKinds {
		for _, n := range sizes {
			for i := 0; i < perCell; i++ {
				light = append(light, genPlatform(k, n, rng.Int63()))
			}
		}
	}
	light = append(light, paperPlatform())
	rng.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
	var heavy []platform
	for _, k := range heavyKinds {
		for _, n := range heavySizes {
			for _, s := range heavySeeds {
				heavy = append(heavy, genPlatform(k, n, s))
			}
		}
	}
	// The large-Ψ platforms sit at evenly spaced fixed positions, so the
	// same ones fall among the first len-64 positions, which the LRU
	// evicts and the revisit re-primes, for every seed.
	var order []platform
	stride := max(len(light)/len(heavy), 1)
	for i, p := range light {
		if i%stride == 0 && i/stride < len(heavy) {
			order = append(order, heavy[i/stride])
		}
		order = append(order, p)
	}
	evicted := len(order) - shardCapacity
	w := &workload{Name: "deploy", Warm: warmup()}
	// Step i submits platform i cold and re-submits the window platforms
	// before it, so each platform gets exactly window warm re-submits
	// while it is still among the 64 most recently used.
	for i := 0; i < len(order)+window; i++ {
		if i < len(order) {
			w.List = append(w.List, submitReq(order[i]))
		}
		for j := min(i-1, len(order)-1); j >= 0 && j >= i-window; j-- {
			w.List = append(w.List, submitReq(order[j]))
		}
	}
	for i := 0; i < evicted; i++ {
		w.List = append(w.List, submitReq(order[i]))
	}
	return w
}

// simulatePlatforms is the simulate workload's fixed platform set: every
// family at two sizes and two generator seeds, the Section-8 tree, and
// three result-return variants. Compute-limited and SETI members include
// platforms the daemon refuses to simulate today (Ψ too large to
// materialize); they stay in the set.
func simulatePlatforms(tiny bool) []platform {
	if tiny {
		p := genPlatform(bwc.WideStar, 10, 1)
		p.Label, p.Return = p.Label+"-ret", "1/2"
		return []platform{paperPlatform(), genPlatform(bwc.Uniform, 10, 1), genPlatform(bwc.ComputeLimited, 25, 2), p}
	}
	ps := []platform{paperPlatform()}
	for _, k := range append(append([]bwc.PlatformKind{}, lightKinds...), heavyKinds...) {
		for _, n := range []int{10, 25} {
			for _, s := range []int64{1, 2} {
				ps = append(ps, genPlatform(k, n, s))
			}
		}
	}
	for _, r := range []struct {
		p platform
		d string
	}{{paperPlatform(), "1/4"}, {genPlatform(bwc.Uniform, 10, 1), "1/2"}, {genPlatform(bwc.WideStar, 25, 1), "1/2"}} {
		r.p.Label, r.p.Return, r.p.Pin = r.p.Label+"-ret", r.d, false
		ps = append(ps, r.p)
	}
	return ps
}

// simulateWorkload primes the fixed set during set-up, then runs
// simulate+analyze three times per platform and pass, plus one bare
// analyze on each forward-only platform, in a seeded order. Each
// simulate request's horizon is drawn from 100 to 600 tasks, so the
// list's costs spread smoothly instead of clustering on a few repeated
// bodies. Bare analyze requests, the heaviest, keep one horizon, so the
// bodies that set the tail are the same for every seed.
func simulateWorkload(rng *rand.Rand, seconds int, tiny bool) *workload {
	ps := simulatePlatforms(tiny)
	reps, perPlatform, analyzeTasks := max(units(seconds)*2/5, 1), 3, 300
	horizon := func() int { return 100 + 50*rng.Intn(11) }
	if tiny {
		reps, perPlatform, analyzeTasks, horizon = 1, 1, 40, func() int { return 40 }
	}
	w := &workload{Name: "simulate", Warm: warmup()}
	for _, p := range ps {
		w.Prime = append(w.Prime, submitReq(p))
	}
	for r := 0; r < reps; r++ {
		for _, p := range ps {
			for i := 0; i < perPlatform; i++ {
				w.List = append(w.List, simulateReq(p, horizon()))
			}
			if p.Return == "" {
				w.List = append(w.List, analyzeReq(p, analyzeStop(p, analyzeTasks)))
			}
		}
	}
	rng.Shuffle(len(w.List), func(i, j int) { w.List[i], w.List[j] = w.List[j], w.List[i] })
	return w
}

// analyzeStop picks the virtual stop time at which a platform completes
// about the given number of tasks, so bare analyze requests cost about
// as much as the median simulate request whatever the platform's rate.
func analyzeStop(p platform, tasks int) string {
	t, err := bwc.ParsePlatformString(p.Text)
	if err != nil {
		panic(err)
	}
	rate := bwc.Solve(t).Throughput
	if !rate.IsPos() {
		return "100"
	}
	return bwc.RatInt(int64(tasks)).Div(rate).Ceil().String()
}

// adaptPlatforms is the adapt workload's fixed set of small platforms:
// the Section-8 tree and two 10-node platforms of every light family.
func adaptPlatforms(tiny bool) []platform {
	ps := []platform{paperPlatform()}
	kinds, genSeeds := lightKinds, []int64{1, 2}
	if tiny {
		kinds, genSeeds = kinds[:1], genSeeds[:1]
	}
	for _, k := range kinds {
		for _, s := range genSeeds {
			ps = append(ps, genPlatform(k, 10, s))
		}
	}
	return ps
}

// adaptWorkload interleaves churn and adaptive requests one for one over
// a fixed catalog of (platform, churn seed) and (platform, fault seed)
// bodies at the daemon's default horizons (churn 600, adaptive 400); the
// run seed orders each kind's bodies. One churn body's cost
// ranges over 15× with its churn seed, so the catalog is fixed rather
// than drawn, and wide rather than repeated, so the costs spread
// smoothly.
func adaptWorkload(rng *rand.Rand, seconds int, tiny bool) *workload {
	ps := adaptPlatforms(tiny)
	seeds := []int64{1, 2, 3, 4}
	reps := max(units(seconds)/10, 1)
	if tiny {
		seeds, reps = []int64{5}, 1
	}
	w := &workload{Name: "adapt", Warm: warmup()}
	for _, p := range ps {
		w.Prime = append(w.Prime, submitReq(p))
	}
	for r := 0; r < reps; r++ {
		var churn, adaptive []request
		for _, p := range ps {
			for _, s := range seeds {
				churn = append(churn, churnReq(p, s, "600"))
				adaptive = append(adaptive, adaptiveReq(p, s, 2, 400))
			}
		}
		rng.Shuffle(len(churn), func(i, j int) { churn[i], churn[j] = churn[j], churn[i] })
		rng.Shuffle(len(adaptive), func(i, j int) { adaptive[i], adaptive[j] = adaptive[j], adaptive[i] })
		for i := range churn {
			w.List = append(w.List, churn[i], adaptive[i])
		}
	}
	return w
}
