package adapt

import (
	"errors"
	"fmt"
	"time"

	"bwc/internal/bwcerr"
	"bwc/internal/bwfirst"
	"bwc/internal/engine"
	"bwc/internal/obs"
	"bwc/internal/obs/analyze"
	"bwc/internal/proto"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/sim"
	"bwc/internal/tree"
)

// Options configures an adaptive run (simulated or wall-clock).
type Options struct {
	// Faults is the scripted perturbation timeline (see RandomFaults for
	// a generated one).
	Faults []Fault
	// Stop is the detection horizon: the root releases tasks until Stop
	// (virtual time). Required for SimulateAdaptive.
	Stop rat.R
	// Window is the drift-detection window width; zero uses the active
	// schedule's rootless period.
	Window rat.R
	// Threshold is the minimum worst-node achieved/α per window
	// (default 0.85).
	Threshold float64
	// Consecutive is how many bad windows in a row fire the detector
	// (default 2).
	Consecutive int
	// BufferSlack is the tolerated peak-buffer excess over χ per window
	// (default 2: schedule transitions jitter occupancy by a task or
	// two).
	BufferSlack int
	// MaxAdapts bounds the number of re-negotiations. 0 means the
	// default (4). Negative means detect only: the first drift surfaces
	// as ErrScheduleStale (DetectOnly wraps this).
	MaxAdapts int
	// Timeout, Backoff, Retries tune the resilient negotiation wave (see
	// proto.ResilientOptions); zero values take that type's defaults.
	Timeout time.Duration
	Backoff time.Duration
	Retries int
	// CrashFactor is the compute slowdown standing in for a fail-stopped
	// process (its goroutines must still drain in wall-clock runs, so
	// infinity is not an option). Zero uses 1<<20 in simulation and 16
	// in wall-clock execution.
	CrashFactor int64
	// VerifyPeriods is how many rootless periods of the final schedule
	// the post-swap verification window must cover; the verification run
	// extends its horizon past Stop if needed (default 4).
	VerifyPeriods int64
	// Sched configures re-solved schedule construction.
	Sched sched.Options
	// Obs, when enabled, receives the controller's adaptation events and
	// the negotiation spans of every re-solve wave.
	Obs *obs.Scope
}

func (o Options) withDefaults(crashDefault int64) Options {
	if o.Threshold == 0 {
		o.Threshold = 0.85
	}
	if o.Consecutive <= 0 {
		o.Consecutive = 2
	}
	if o.BufferSlack == 0 {
		o.BufferSlack = 2
	}
	switch {
	case o.MaxAdapts == 0:
		o.MaxAdapts = 4
	case o.MaxAdapts < 0: // detect only
		o.MaxAdapts = 0
	}
	if o.CrashFactor <= 0 {
		o.CrashFactor = crashDefault
	}
	if o.VerifyPeriods <= 0 {
		o.VerifyPeriods = 4
	}
	return o
}

// detector builds the detector configured by o.
func (o Options) detector() *Detector {
	return &Detector{Threshold: o.Threshold, BufferSlack: o.BufferSlack, Consecutive: o.Consecutive}
}

// windowFor resolves the detection window for a schedule.
func (o Options) windowFor(s *sched.Schedule) (rat.R, error) {
	if o.Window.IsPos() {
		return o.Window, nil
	}
	w := rat.FromBigInt(s.RootlessPeriod())
	if !w.IsPos() {
		w = rat.FromBigInt(s.TreePeriod())
	}
	if !w.IsPos() {
		return rat.Zero, fmt.Errorf("adapt: schedule has no positive period to derive a detection window from: %w", bwcerr.ErrInfeasible)
	}
	return w, nil
}

// Adaptation records one detect → re-solve → swap cycle.
type Adaptation struct {
	// Drift is the detection that triggered the cycle.
	Drift Drift
	// SwapAt is the period boundary the stale schedule was deactivated
	// at (the simulated controller swaps at the first boundary after
	// detection; the wall-clock controller records the boundary it
	// measured).
	SwapAt rat.R
	// ResumeAt is when the new schedule started releasing: SwapAt plus
	// the pause the simulated controller inserts to drain the stale
	// backlog off the root's send port (equal to SwapAt when no drain
	// was needed; the wall-clock runtime drains inside Swap itself).
	ResumeAt rat.R
	// Throughput is the re-negotiated steady-state rate on the measured
	// platform.
	Throughput rat.R
	// Messages and Visited report the cost of the re-solve wave (the
	// paper's Prop. 2 economy: only the useful subtree is walked).
	Messages int
	Visited  int
	// Pruned names the children the resilient wave gave up on.
	Pruned []string
	// Schedule is the newly deployed schedule.
	Schedule *sched.Schedule
}

// SimReport is the outcome of one simulated controller run
// (SimulateAdaptive; SimulateChurn embeds it).
type SimReport struct {
	// Run is the final verification run: the full timeline with every
	// adaptation applied.
	Run *sim.Run
	// Adaptations lists the detect/re-solve/swap cycles, in order.
	Adaptations []Adaptation
	// Pre analyzes the regime before the first swap under the original
	// schedule (the stale regime — expected to fail when faults bite);
	// nil when no adaptation happened.
	Pre *analyze.HealthReport
	// Post analyzes the regime after the last swap (past its start-up
	// bound) under the final schedule; when no adaptation happened it is
	// the whole-run report.
	Post *analyze.HealthReport
	// Healed reports whether the final regime passes every check.
	Healed bool
	// Stop is the verification horizon actually simulated (≥ the
	// requested Stop when the last swap needed more room to verify).
	Stop rat.R
	// Log is the deterministic event log: identical inputs reproduce it
	// byte for byte.
	Log []string
}

func (r *SimReport) logf(format string, a ...any) {
	r.Log = append(r.Log, fmt.Sprintf(format, a...))
}

// FinalSchedule returns the schedule active at the end of the run.
func (r *SimReport) FinalSchedule() *sched.Schedule {
	if n := len(r.Adaptations); n > 0 {
		return r.Adaptations[n-1].Schedule
	}
	return nil
}

// SimulateAdaptive runs the closed loop against the exact simulator:
// simulate under the fault timeline, scan the evidence for drift against
// the active schedule, re-negotiate on the measured (faulted) platform —
// crashed nodes pruned by the resilient wave — and hot-swap the new
// schedule at the next root period boundary; repeat until no drift
// remains or MaxAdapts is exhausted. The controller is deterministic:
// re-simulating the grown phase list replays the identical prefix, so
// each iteration extends the previous timeline exactly.
//
// Detection-only mode (DetectOnly) returns ErrScheduleStale on the first
// drift. A run whose drift persists after MaxAdapts re-solves, or fires
// too late to swap before Stop, returns ErrAdaptTimeout.
func SimulateAdaptive(s *sched.Schedule, opt Options) (*SimReport, error) {
	if err := checkInput(s, opt); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(1 << 20)
	physics, err := Timeline(s.Tree, opt.Faults, rat.FromInt(opt.CrashFactor))
	if err != nil {
		return nil, err
	}
	rep := &SimReport{}
	return rep, adaptLoop(s, opt, physics, rep, full{opt})
}

func checkInput(s *sched.Schedule, opt Options) error {
	if s == nil || s.Tree == nil || s.Tree.Len() == 0 {
		return fmt.Errorf("adapt: no schedule")
	}
	if !opt.Stop.IsPos() {
		return fmt.Errorf("adapt: Stop must be positive")
	}
	return nil
}

// policy is the re-solve half of the adaptation loop: how a confirmed
// drift becomes the next schedule and how that schedule is installed.
// adaptLoop owns everything else — detection, the swap boundary, the
// drain pause, the phase list, the events and log lines it shares, and
// the verification run.
type policy interface {
	// resolve answers a drift on the measured platform; an error aborts
	// the run.
	resolve(d Drift, measured *tree.Tree, window rat.R) (step, error)
	// changed lists the nodes whose cursors installing next over prev
	// resets; nil installs next in full.
	changed(prev, next *sched.Schedule) []tree.NodeID
	// swapped records an installed adaptation and its delta.
	swapped(ad Adaptation, changed []tree.NodeID)
	// late handles a drift with no swap boundary before the horizon (err
	// wraps ErrAdaptTimeout): an error aborts the run, nil verifies the
	// timeline as it stands.
	late(d Drift, err error) error
	// finish completes the report after the verification run.
	finish()
}

// step is a policy's answer to one drift: the adaptation to install
// (the loop fills in Drift, SwapAt and ResumeAt) or, when the re-solve
// failed (nil Schedule), either the instant before which the regime is
// not scanned again or the error that ends the run once the timeline as
// it stands is verified.
type step struct {
	ad      Adaptation
	retryAt rat.R
	halt    error
}

// adaptLoop is the closed loop of the simulated controllers: simulate
// the grown timeline, scan the active regime for drift, classify it
// (detect-only → ErrScheduleStale, exhausted budget → ErrAdaptTimeout),
// re-solve on the measured platform through pol, and hot-swap the result
// at the next root period boundary; repeat until no drift remains, then
// verify the final regime.
func adaptLoop(s *sched.Schedule, opt Options, physics []sim.PhysicsChange, rep *SimReport, pol policy) error {
	rep.Stop = opt.Stop
	for _, f := range opt.Faults {
		rep.logf("fault %s", f)
	}
	var phases []sim.Phase // activations after t=0
	segStart := rat.Zero
	active := s
	// settle is the absolute time before which the active regime is not
	// yet owed its steady state (its Proposition 4 start-up bound past
	// the instant it began releasing).
	settle := s.MaxStartupBound()
	// ev is the evidence of the current timeline; a retry re-scans it
	// with a later settle instead of re-simulating an unchanged timeline.
	var ev *analyze.Evidence
	var halt error

	for {
		if ev == nil {
			run, err := simulateOnce(s, phases, physics, opt.Stop)
			if err != nil {
				return err
			}
			ev = analyze.FromScope(run.Obs)
		}
		window, err := opt.windowFor(active)
		if err != nil {
			return err
		}
		drift, found := scan(ev, active, segStart, settle, opt.Stop, window, opt.detector())
		if !found {
			break
		}
		emitDrift(opt.Obs, drift)
		rep.logf("drift t=%s node=%s ratio=%.3f", drift.At, drift.Window.WorstNode, drift.Window.MinRatio)
		// The engine classifies confirmed drift (exact detection instant:
		// the simulated evidence is replayed, so t is not approximate).
		if opt.MaxAdapts == 0 {
			return engine.StaleDrift(drift.At, false, drift.Window.WorstNode, drift.Window.MinRatio)
		}
		if len(rep.Adaptations) >= opt.MaxAdapts {
			return engine.AdaptExhausted(drift.At, false, len(rep.Adaptations))
		}

		measured := physicsAt(s.Tree, physics, drift.At)
		st, err := pol.resolve(drift, measured, window)
		if err != nil {
			return err
		}
		if st.halt != nil {
			halt = st.halt
			break
		}
		if st.ad.Schedule == nil {
			settle = st.retryAt
			continue
		}
		swapAt, err := nextBoundary(active, segStart, drift.At, opt.Stop)
		if err != nil {
			if errors.Is(err, bwcerr.ErrAdaptTimeout) {
				err = pol.late(drift, err)
			}
			if err != nil {
				return err
			}
			break
		}
		// The stale regime kept releasing at its old rate onto the faulted
		// platform, piling transfers onto the root's send port. Mirror the
		// wall-clock runtime's drain-then-swap: pause the root at the
		// boundary long enough for the backlog to clear, then start the
		// new schedule from a clean port.
		drain := drainBound(active, measured, swapAt.Sub(segStart))
		resumeAt, installed := swapAt, active
		if drain.IsPos() {
			pause := pauseSchedule(active)
			phases = append(phases, sim.Phase{At: swapAt, Schedule: pause, Changed: pol.changed(active, pause)})
			resumeAt, installed = swapAt.Add(drain), pause
		}
		next := st.ad.Schedule
		changed := pol.changed(installed, next)
		phases = append(phases, sim.Phase{At: resumeAt, Schedule: next, Changed: changed})
		ad := st.ad
		ad.Drift, ad.SwapAt, ad.ResumeAt = drift, swapAt, resumeAt
		rep.Adaptations = append(rep.Adaptations, ad)
		pol.swapped(ad, changed)
		opt.Obs.Emit("swap",
			obs.A("at", swapAt.String()),
			obs.A("resume", resumeAt.String()),
			obs.A("throughput", ad.Throughput.String()),
			obs.A("messages", fmt.Sprint(ad.Messages)))
		rep.logf("swap t=%s resume=%s", swapAt, resumeAt)
		settle = resumeAt.Add(next.MaxStartupBound())
		segStart, active, ev = resumeAt, next, nil
	}

	verr := verifyAndReport(rep, s, phases, physics, opt, segStart)
	pol.finish()
	if verr != nil {
		return verr
	}
	return halt
}

// emitDrift publishes a confirmed drift on the run's observer.
func emitDrift(sc *obs.Scope, d Drift) {
	sc.Emit("drift", obs.A("at", d.At.String()), obs.A("node", d.Window.WorstNode),
		obs.A("ratio", fmt.Sprintf("%.3f", d.Window.MinRatio)))
}

// full is SimulateAdaptive's re-solve policy: the resilient distributed
// negotiation re-runs BW-First over the whole measured platform (crashed
// nodes pruned by the wave), the new schedule is installed in full, and
// a drift too late to swap is a timeout.
type full struct{ opt Options }

func (p full) resolve(d Drift, measured *tree.Tree, _ rat.R) (step, error) {
	sess := proto.NewSessionObserved(measured, p.opt.Obs)
	defer sess.Close()
	for _, name := range CrashedBefore(p.opt.Faults, d.At) {
		if id, ok := measured.Lookup(name); ok {
			sess.SetResponsive(id, false)
		}
	}
	pr, err := sess.RunResilient(proto.ResilientOptions{Timeout: p.opt.Timeout, Backoff: p.opt.Backoff, Retries: p.opt.Retries})
	if err != nil {
		return step{}, err
	}
	if !pr.Throughput.IsPos() {
		return step{}, fmt.Errorf("adapt: re-negotiated throughput is zero on the measured platform: %w", bwcerr.ErrInfeasible)
	}
	next, err := deployable(ResultFromProtocol(pr), p.opt)
	if err != nil {
		return step{}, err
	}
	ad := Adaptation{Throughput: pr.Throughput, Messages: pr.Messages, Visited: pr.VisitedCount, Schedule: next}
	for _, pn := range pr.Pruned {
		ad.Pruned = append(ad.Pruned, pn.Name)
	}
	return step{ad: ad}, nil
}

func (full) changed(_, _ *sched.Schedule) []tree.NodeID { return nil }
func (full) swapped(Adaptation, []tree.NodeID)          {}
func (full) late(_ Drift, err error) error              { return err }
func (full) finish()                                    {}

// verifyAndReport runs the verification pass of the simulated
// controllers: extend the horizon so the final regime has VerifyPeriods
// full tree periods past its settle time, re-simulate the grown
// timeline, and split the evidence at the swap boundaries. The post
// window starts on the final schedule's tree-period grid (anchored at
// the last swap) so that per-node steady-state expectations are exact
// integers.
func verifyAndReport(rep *SimReport, s *sched.Schedule, phases []sim.Phase, physics []sim.PhysicsChange, opt Options, segStart rat.R) error {
	final := rep.FinalSchedule()
	verifyStop := opt.Stop
	var postFrom, onsetW rat.R
	if final != nil {
		tp := rat.FromBigInt(final.TreePeriod())
		if !tp.IsPos() {
			var err error
			if tp, err = opt.windowFor(final); err != nil {
				return err
			}
		}
		k := final.MaxStartupBound().Div(tp).Ceil()
		postFrom = segStart.Add(k.Mul(tp))
		verifyStop = rat.Max(verifyStop, postFrom.Add(tp.Mul(rat.FromInt(opt.VerifyPeriods))))
		onsetW = tp
	}
	run, err := simulateOnce(s, phases, physics, verifyStop)
	if err != nil {
		return err
	}
	rep.Run = run
	rep.Stop = verifyStop
	ev := analyze.FromScope(run.Obs)
	if final == nil {
		rep.Post = analyze.Analyze(ev, analyze.Options{Schedule: s, Stop: verifyStop})
		rep.Healed = rep.Post.Healthy()
		return nil
	}
	firstSwap := rep.Adaptations[0].SwapAt
	rep.Pre = analyze.Analyze(analyze.ClipEvidence(ev, rat.Zero, firstSwap),
		analyze.Options{Schedule: s, Stop: firstSwap})
	rep.Post = analyze.Analyze(analyze.ClipEvidence(ev, postFrom, verifyStop),
		analyze.Options{Schedule: final, Stop: verifyStop.Sub(postFrom), OnsetWindow: onsetW})
	rep.Healed = rep.Post.Healthy()
	return nil
}

// DetectOnly runs the detection half of the loop without ever adapting:
// it returns nil if the run conforms to s throughout, and an error
// wrapping bwcerr.ErrScheduleStale describing the first drift otherwise.
func DetectOnly(s *sched.Schedule, opt Options) error {
	opt.MaxAdapts = -1
	_, err := SimulateAdaptive(s, opt)
	return err
}

// simulateOnce runs s with the accumulated timeline under a fresh scope.
func simulateOnce(s *sched.Schedule, phases []sim.Phase, physics []sim.PhysicsChange, stop rat.R) (*sim.Run, error) {
	return sim.Simulate(s, sim.Options{
		Stop:    stop,
		Phases:  phases,
		Physics: physics,
		Obs:     obs.New(),
	})
}

// physicsAt returns the platform in effect at time t.
func physicsAt(base *tree.Tree, physics []sim.PhysicsChange, t rat.R) *tree.Tree {
	cur := base
	for _, pc := range physics {
		if pc.At.LessEq(t) {
			cur = pc.Tree
		}
	}
	return cur
}

// deployable builds the schedule of a re-solve and checks that its root
// can release.
func deployable(res *bwfirst.Result, opt Options) (*sched.Schedule, error) {
	next, err := sched.Build(res, opt.Sched)
	if err != nil {
		return nil, err
	}
	if rs := &next.Nodes[next.Tree.Root()]; !rs.Active || rs.Pattern == nil {
		return nil, fmt.Errorf("adapt: re-solved schedule has no usable root pattern: %w", bwcerr.ErrInfeasible)
	}
	return next, nil
}

// nextBoundary returns the first root period boundary of the active
// schedule strictly after the detection instant; the boundary grid is
// anchored where the schedule activated.
func nextBoundary(active *sched.Schedule, segStart, detectedAt, stop rat.R) (rat.R, error) {
	tw := active.Nodes[active.Tree.Root()].TW
	if !tw.IsPos() {
		return rat.Zero, fmt.Errorf("adapt: active schedule has no root period: %w", bwcerr.ErrInfeasible)
	}
	k := detectedAt.Sub(segStart).Div(tw).Floor().Add(rat.One)
	at := segStart.Add(k.Mul(tw))
	if !at.Less(stop) {
		return rat.Zero, fmt.Errorf("adapt: drift detected at t=%s but the next period boundary %s falls outside the horizon %s: %w",
			detectedAt, at, stop, bwcerr.ErrAdaptTimeout)
	}
	return at, nil
}

// pauseSchedule returns old with its root deactivated: every other node
// keeps its pattern (in-flight and buffered tasks still route and
// compute), but the root releases nothing — the simulator's analogue of
// the wall-clock master holding releases while the platform drains.
func pauseSchedule(old *sched.Schedule) *sched.Schedule {
	pause := *old
	pause.Nodes = append([]sched.NodeSchedule(nil), old.Nodes...)
	rs := &pause.Nodes[old.Tree.Root()]
	rs.Active = false
	rs.Pattern = nil
	return &pause
}

// drainBound bounds how long the root's send port needs to work off the
// backlog a stale regime left behind: the stale pattern demanded
// Σ η_i·c_new(i) units of port time per released unit under the faulted
// link weights, so a stale window of duration `stale` queues at most
// (inflation − 1)·stale units of port work. An overestimate merely
// leaves the port idle for a moment; an underestimate would start the
// new regime behind a backlog a saturated port can never clear.
func drainBound(old *sched.Schedule, phys *tree.Tree, stale rat.R) rat.R {
	if !stale.IsPos() {
		return rat.Zero
	}
	root := old.Tree.Root()
	rs := &old.Nodes[root]
	inflate := rat.Zero
	for i, c := range old.Tree.Children(root) {
		if i < len(rs.Sends) && rs.Sends[i].IsPos() {
			inflate = inflate.Add(rs.Sends[i].Mul(phys.CommTime(c)))
		}
	}
	if inflate.LessEq(rat.One) {
		return rat.Zero
	}
	return stale.Mul(inflate.Sub(rat.One))
}

// ResultFromProtocol lifts a distributed-protocol result into the
// bwfirst.Result shape schedule construction expects: the per-node rates
// are copied and the derived receive rates recomputed locally.
func ResultFromProtocol(pr *proto.Result) *bwfirst.Result {
	res := &bwfirst.Result{
		Tree:         pr.Tree,
		TMax:         pr.TMax,
		Throughput:   pr.Throughput,
		VisitedCount: pr.VisitedCount,
		Nodes:        make([]bwfirst.NodeState, pr.Tree.Len()),
	}
	for id := range res.Nodes {
		st := &res.Nodes[id]
		st.Visited = pr.Visited[id]
		st.Alpha = pr.Alpha[id]
		st.SendRates = pr.SendRates[id]
		st.RecvRate = st.ConsumeRate()
	}
	return res
}
