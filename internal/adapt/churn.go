package adapt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bwc/internal/bwcerr"
	"bwc/internal/bwfirst"
	"bwc/internal/engine"
	"bwc/internal/obs/analyze"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/tree"
	"bwc/internal/treegen"
)

// ChurnConfig seeds the stochastic fleet-churn process. Every field has
// a usable default; Seed alone fully determines the generated timeline
// for a given tree and horizon.
type ChurnConfig struct {
	// Seed drives the generator; the same seed yields a byte-identical
	// fault script (and therefore an identical simulated run).
	Seed int64
	// Rate is the expected number of churn events per 100 virtual time
	// units at peak diurnal intensity (default 8).
	Rate float64
	// ParetoShape is the tail index of the heavy-tailed inter-arrival
	// gaps: smaller means burstier, with occasional long lulls
	// (default 1.5).
	ParetoShape float64
	// DayLength is the diurnal period of the intensity envelope; zero
	// uses the horizon, giving one quiet–busy–quiet cycle per run.
	DayLength rat.R
	// Trough is the off-peak intensity floor in (0,1] (default 0.15).
	Trough float64
	// Grid quantizes event instants up to multiples of 1/Grid so every
	// timestamp stays an exact rational (default 32).
	Grid int64
	// CrashFraction caps fail-stop victims as a fraction of the non-root
	// fleet (default 0.15; negative disables crashes entirely).
	CrashFraction float64
}

// churn event generation bounds: events land in the middle of the
// horizon — after start-up has settled, with a cooldown tail so the
// final regime can re-stabilize before verification — and a runaway
// rate is capped rather than allowed to flood the timeline.
const (
	churnOnsetFrac    = 0.125
	churnCooldownFrac = 0.75
	churnMaxEvents    = 256
)

// GenerateChurn compiles cfg into a reproducible fault script for t
// over [0, horizon): join/leave churn (a leave is a link collapsed by
// 16×, the rejoin its restore), bandwidth and compute drift (scales of
// 1.5–6× with probabilistic recovery), and a bounded budget of
// permanent fail-stop crashes. Inter-arrival gaps are heavy-tailed
// (Pareto) and thinned by a diurnal intensity envelope; instants are
// quantized up to the rational grid so the driven simulation stays
// exact. The root is never targeted.
func GenerateChurn(t *tree.Tree, horizon rat.R, cfg ChurnConfig) []Fault {
	if t == nil || t.Len() < 2 || !horizon.IsPos() {
		return nil
	}
	rate := cfg.Rate
	if rate <= 0 {
		rate = 8
	}
	shape := cfg.ParetoShape
	if shape <= 0 {
		shape = 1.5
	}
	grid := cfg.Grid
	if grid <= 0 {
		grid = 32
	}
	day := cfg.DayLength
	if !day.IsPos() {
		day = horizon
	}
	frac := cfg.CrashFraction
	switch {
	case frac < 0:
		frac = 0
	case frac == 0:
		frac = 0.15
	}
	crashBudget := int(frac * float64(t.Len()-1))

	// Normalize the Pareto samples to mean 1 (median 1 when the shape
	// puts the mean out of reach) so meanGap really is the mean gap.
	norm := 1 / math.Pow(2, 1/shape)
	if shape > 1 {
		norm = (shape - 1) / shape
	}
	meanGap := 100 / rate
	H := horizon.Float64()
	dayF := day.Float64()
	start, end := churnOnsetFrac*H, churnCooldownFrac*H

	rng := rand.New(rand.NewSource(cfg.Seed))
	crashed := map[tree.NodeID]bool{}
	var out []Fault
	gap := func(scale float64) float64 {
		return scale * norm * treegen.Pareto(rng, shape)
	}
	for x := start; len(out) < churnMaxEvents; {
		x += gap(meanGap) / treegen.DiurnalIntensity(x/dayF, cfg.Trough)
		if x >= end {
			break
		}
		at := treegen.QuantizeUp(x, grid)
		victim := tree.NodeID(1 + rng.Intn(t.Len()-1))
		name := t.Name(victim)
		_, hasProc := t.ProcTime(victim)
		outage := x + gap(meanGap*0.75)
		roll := rng.Intn(10)
		switch {
		case roll == 0 && crashBudget > 0 && !crashed[victim]:
			crashed[victim] = true
			crashBudget--
			out = append(out, Fault{At: at, Node: name, Kind: Crash})
		case roll <= 3 && hasProc:
			// Compute drift: the machine slows by 1.5–6×.
			factor := rat.New(int64(3+rng.Intn(10)), 2)
			out = append(out, Fault{At: at, Node: name, Kind: NodeScale, Value: factor})
			if rng.Intn(10) < 6 && outage < end {
				out = append(out, Fault{At: treegen.QuantizeUp(outage, grid), Node: name, Kind: NodeRestore})
			}
		case roll <= 6:
			// Bandwidth drift: the incoming link degrades by 1.5–6×.
			factor := rat.New(int64(3+rng.Intn(10)), 2)
			out = append(out, Fault{At: at, Node: name, Kind: LinkScale, Value: factor})
			if rng.Intn(10) < 6 && outage < end {
				out = append(out, Fault{At: treegen.QuantizeUp(outage, grid), Node: name, Kind: LinkRestore})
			}
		default:
			// Leave + rejoin: the link collapses outright, then comes
			// back at its baseline weight after a longer outage.
			rejoin := x + gap(meanGap*1.5)
			out = append(out, Fault{At: at, Node: name, Kind: LinkScale, Value: rat.FromInt(16)})
			if rejoin < end {
				out = append(out, Fault{At: treegen.QuantizeUp(rejoin, grid), Node: name, Kind: LinkRestore})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Less(out[j].At) })
	return out
}

// ChurnOptions configures SimulateChurn. The embedded Options carry the
// detection horizon, detector thresholds, and any scripted faults to
// merge with the generated churn.
type ChurnOptions struct {
	Options
	// Churn seeds the stochastic churn generator.
	Churn ChurnConfig
	// RetentionFloor is the graceful-degradation contract's hard floor:
	// a re-solve whose throughput falls below this fraction of the
	// baseline is treated as a failed re-negotiation and retried; when
	// the retry budget is exhausted the run collapses with
	// bwcerr.ErrChurnCollapse (default 0.5).
	RetentionFloor float64
	// OracleFloor is the verdict threshold for the churn-retention
	// check: the final retained throughput must reach this fraction of
	// an oracle full re-solve on the final platform (default 0.9).
	OracleFloor float64
	// ResolveRetries bounds how many consecutive failed re-solves are
	// retried with backoff before collapsing (default 3).
	ResolveRetries int
	// RetryBackoff is the base backoff between retries, doubled per
	// consecutive failure and jittered deterministically from the churn
	// seed; zero uses the detection window.
	RetryBackoff rat.R
	// FlapThreshold quarantines a node observed perturbed in this many
	// re-solve cycles within FlapWindow: its subtree is pruned from
	// subsequent schedules instead of being chased (default 3).
	FlapThreshold int
	// FlapWindow is the sliding window for flap counting; zero uses a
	// quarter of the horizon.
	FlapWindow rat.R
}

func (o ChurnOptions) withChurnDefaults() ChurnOptions {
	if o.MaxAdapts == 0 {
		// Churn fires many more adaptations than a scripted fault demo.
		o.MaxAdapts = 16
	}
	if o.RetentionFloor <= 0 {
		o.RetentionFloor = 0.5
	}
	if o.OracleFloor <= 0 {
		o.OracleFloor = 0.9
	}
	if o.ResolveRetries <= 0 {
		o.ResolveRetries = 3
	}
	if o.FlapThreshold <= 0 {
		o.FlapThreshold = 3
	}
	if !o.FlapWindow.IsPos() {
		o.FlapWindow = o.Stop.Div(rat.FromInt(4))
	}
	o.Options = o.Options.withDefaults(1 << 20)
	return o
}

// ReSolveStat records the cost of one incremental re-solve cycle.
type ReSolveStat struct {
	// At is the drift-detection instant that triggered the cycle.
	At rat.R
	// Recomputed and Reused count live spine transactions vs memoized
	// subtree answers carried over from the previous solution.
	Recomputed int
	Reused     int
	// Pruned counts crashed plus quarantined nodes excluded outright.
	Pruned int
	// Delta counts the nodes whose schedule actually changed — the only
	// cursors the hot-swap reset.
	Delta int
}

// ChurnReport is the outcome of one SimulateChurn run.
type ChurnReport struct {
	SimReport
	// Faults is the full merged fault timeline (generated + scripted).
	Faults []Fault
	// Baseline is the initial schedule's steady-state throughput.
	Baseline rat.R
	// Oracle is a full (non-incremental) re-solve on the final measured
	// platform with only the truly crashed nodes pruned — the best any
	// controller could retain.
	Oracle rat.R
	// Final is the steady-state throughput of the last deployed
	// schedule; Retention is Final/Oracle.
	Final     rat.R
	Retention float64
	// Quarantined names the flapping nodes the controller gave up on.
	Quarantined []string
	// ReSolves records the incremental cost of each adaptation cycle.
	ReSolves []ReSolveStat
	// Collapsed reports the terminal degradation state (the run also
	// returns bwcerr.ErrChurnCollapse).
	Collapsed bool
}

const churnJitterSalt = 0x5bd1e995

// SimulateChurn runs the churn-hardened closed loop against the exact
// simulator: generate a seeded churn timeline, simulate, detect drift,
// and — unlike SimulateAdaptive's full re-negotiation — re-solve
// incrementally along the affected root-to-leaf spine only
// (bwfirst.SolveIncremental over tree.DiffWeights), hot-swapping just
// the changed schedules through the engine's delta seam. Flapping nodes
// are quarantined, failed re-solves retried with seeded backoff jitter,
// and a run whose retained throughput stays below RetentionFloor of the
// baseline after the retry budget collapses with ErrChurnCollapse.
//
// The controller is fully deterministic: a fixed seed reproduces the
// fault script, the simulated runs, and the report log byte for byte.
func SimulateChurn(s *sched.Schedule, opt ChurnOptions) (*ChurnReport, error) {
	if err := checkInput(s, opt.Options); err != nil {
		return nil, err
	}
	opt = opt.withChurnDefaults()
	base := s.Tree

	faults := GenerateChurn(base, opt.Stop, opt.Churn)
	faults = append(faults, opt.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At.Less(faults[j].At) })
	physics, err := Timeline(base, faults, rat.FromInt(opt.CrashFactor))
	if err != nil {
		return nil, err
	}
	opt.Faults = faults // CrashedBefore and the report see the merged script

	prevRes := s.Res
	if prevRes == nil {
		prevRes = bwfirst.Solve(base)
	}
	rep := &ChurnReport{Faults: faults, Baseline: prevRes.Throughput, Final: prevRes.Throughput}
	pol := &incremental{
		rep:         rep,
		opt:         opt,
		base:        base,
		physics:     physics,
		prevRes:     prevRes,
		quarantined: map[tree.NodeID]bool{},
		flaps:       map[tree.NodeID][]rat.R{},
		jitter:      rand.New(rand.NewSource(opt.Churn.Seed ^ churnJitterSalt)),
	}
	return rep, adaptLoop(s, opt.Options, physics, &rep.SimReport, pol)
}

// incremental is SimulateChurn's re-solve policy: BW-First re-runs only
// along the spine the churn touched, flapping nodes are quarantined,
// failed re-solves are retried with seeded jitter until the run
// collapses, only the changed node schedules are re-installed, and a
// drift too late to swap verifies the timeline as it stands.
type incremental struct {
	rep         *ChurnReport
	opt         ChurnOptions
	base        *tree.Tree
	physics     []sim.PhysicsChange
	prevRes     *bwfirst.Result // the last installed solution, on its platform
	quarantined map[tree.NodeID]bool
	flaps       map[tree.NodeID][]rat.R
	retries     int
	jitter      *rand.Rand
	// The re-solve of the pending adaptation, committed by swapped.
	res    *bwfirst.Result
	pruned []tree.NodeID
}

func (p *incremental) resolve(d Drift, measured *tree.Tree, window rat.R) (step, error) {
	rep, opt := p.rep, p.opt
	dirty, err := tree.DiffWeights(p.prevRes.Tree, measured)
	if err != nil {
		return step{}, fmt.Errorf("adapt: churn diff: %w", err)
	}
	p.quarantineFlappers(dirty, d.At)
	pruned := prunedSet(measured, CrashedBefore(opt.Faults, d.At), p.quarantined)

	res, serr := bwfirst.SolveIncremental(p.prevRes, measured, dirty, pruned)
	var next *sched.Schedule
	if serr == nil && res.Throughput.IsPos() && retainsFloor(res.Throughput, rep.Baseline, opt.RetentionFloor) {
		next, serr = deployable(res, opt.Options)
	}
	if next == nil {
		// Failed re-negotiation: back off (exponentially, with seeded
		// jitter so repeated runs of one seed stay reproducible while
		// distinct seeds desynchronize) and give restores a chance to
		// land before trying again.
		p.retries++
		thr := rat.Zero
		if serr == nil {
			thr = res.Throughput
		}
		if p.retries > opt.ResolveRetries {
			rep.Collapsed = true
			rep.logf("collapse t=%s throughput=%s floor=%.0f%% of baseline %s", d.At, thr, 100*opt.RetentionFloor, rep.Baseline)
			return step{halt: fmt.Errorf("adapt: churn collapse at t=%s: retained throughput %s is below %.0f%% of baseline %s after %d attempts: %w",
				d.At, thr, 100*opt.RetentionFloor, rep.Baseline, p.retries, bwcerr.ErrChurnCollapse)}, nil
		}
		backoff := opt.RetryBackoff
		if !backoff.IsPos() {
			backoff = window
		}
		backoff = backoff.Mul(rat.FromInt(int64(1) << (p.retries - 1)))
		jit := rat.New(int64(p.jitter.Intn(8)), 8).Mul(window)
		rep.logf("retry %d/%d t=%s backoff=%s jitter=%s", p.retries, opt.ResolveRetries, d.At, backoff, jit)
		return step{retryAt: d.At.Add(backoff).Add(jit)}, nil
	}
	p.retries = 0
	p.res, p.pruned = res, pruned
	return step{ad: Adaptation{
		Throughput: res.Throughput,
		Messages:   2 * len(res.Transactions),
		Visited:    res.Recomputed(),
		Pruned:     nodeNames(p.base, pruned),
		Schedule:   next,
	}}, nil
}

// changed is the delta seam's node list. Pausing touches exactly the
// root, so every other cursor keeps its place and buffered tasks drain
// along the old routes. An identical schedule resets nothing.
func (p *incremental) changed(prev, next *sched.Schedule) []tree.NodeID {
	if c := engine.ChangedNodes(prev, next); c != nil {
		return c
	}
	return []tree.NodeID{}
}

func (p *incremental) swapped(ad Adaptation, changed []tree.NodeID) {
	res := p.res
	p.rep.ReSolves = append(p.rep.ReSolves, ReSolveStat{
		At:         ad.Drift.At,
		Recomputed: res.Recomputed(),
		Reused:     res.Reused(),
		Pruned:     len(p.pruned),
		Delta:      len(changed),
	})
	p.rep.logf("resolve t=%s spine=%d reused=%d pruned=%d delta=%d throughput=%s",
		ad.Drift.At, res.Recomputed(), res.Reused(), len(p.pruned), len(changed), res.Throughput)
	p.prevRes = res
	p.rep.Final = res.Throughput
}

// late: drift fired so late that no swap boundary fits before the
// horizon; nothing is left to adapt, so the timeline is verified as is.
func (p *incremental) late(d Drift, _ error) error {
	p.rep.logf("late drift t=%s: no swap boundary before the horizon, verifying as-is", d.At)
	return nil
}

// retainsFloor reports whether thr clears floor·baseline. The floor is a
// float knob, so the comparison is exact on the rational side: thr is
// compared against baseline scaled by the floor rounded to 1/1024.
func retainsFloor(thr, baseline rat.R, floor float64) bool {
	f := rat.New(int64(math.Ceil(floor*1024)), 1024)
	return !thr.Less(baseline.Mul(f))
}

// quarantineFlappers folds one cycle's dirty set into the sliding flap
// counters and quarantines any non-root node perturbed in FlapThreshold
// cycles within FlapWindow.
func (p *incremental) quarantineFlappers(dirty []tree.NodeID, at rat.R) {
	t := p.base
	cut := at.Sub(p.opt.FlapWindow)
	for _, id := range dirty {
		if id == t.Root() {
			continue
		}
		ev := append(p.flaps[id], at)
		for len(ev) > 0 && ev[0].Less(cut) {
			ev = ev[1:]
		}
		p.flaps[id] = ev
		if !p.quarantined[id] && len(ev) >= p.opt.FlapThreshold {
			p.quarantined[id] = true
			p.rep.logf("quarantine %s after %d perturbations within %s", t.Name(id), len(ev), p.opt.FlapWindow)
		}
	}
}

// prunedSet merges crashed names and quarantined ids into a sorted,
// deduplicated prune list.
func prunedSet(t *tree.Tree, crashed []string, quarantined map[tree.NodeID]bool) []tree.NodeID {
	set := map[tree.NodeID]bool{}
	for _, name := range crashed {
		if id, ok := t.Lookup(name); ok {
			set[id] = true
		}
	}
	for id := range quarantined {
		set[id] = true
	}
	out := make([]tree.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func nodeNames(t *tree.Tree, ids []tree.NodeID) []string {
	var out []string
	for _, id := range ids {
		out = append(out, t.Name(id))
	}
	return out
}

// finish computes the oracle comparison and folds the retention verdict
// into the post-swap conformance report.
func (p *incremental) finish() {
	rep, opt := p.rep, p.opt
	finalPlat := physicsAt(p.base, p.physics, opt.Stop)
	crashed := prunedSet(finalPlat, CrashedBefore(opt.Faults, opt.Stop), nil)
	if oracle, err := bwfirst.SolvePruned(finalPlat, crashed); err == nil {
		rep.Oracle = oracle.Throughput
	}
	if fs := rep.FinalSchedule(); fs != nil && fs.Res != nil {
		rep.Final = fs.Res.Throughput
	}
	if rep.Oracle.IsPos() {
		rep.Retention = rep.Final.Div(rep.Oracle).Float64()
	}
	rep.Quarantined = nodeNames(p.base, prunedSet(p.base, nil, p.quarantined))
	if rep.Post != nil {
		rep.Post.AddCheck(analyze.ChurnRetention(rep.Final, rep.Oracle, opt.OracleFloor))
		rep.Healed = rep.Post.Healthy() && !rep.Collapsed
	}
	rep.logf("final retained=%s oracle=%s retention=%.3f quarantined=%d adaptations=%d",
		rep.Final, rep.Oracle, rep.Retention, len(rep.Quarantined), len(rep.Adaptations))
}
