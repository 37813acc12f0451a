package adapt

import (
	"fmt"
	"sync"
	"time"

	"bwc/internal/engine"
	"bwc/internal/obs"
	"bwc/internal/obs/analyze"
	"bwc/internal/rat"
	"bwc/internal/runtime"
	"bwc/internal/sched"
	"bwc/internal/tree"
)

// ExecOptions configures an adaptive wall-clock execution.
type ExecOptions struct {
	Options
	// Tasks is the batch size (> 0).
	Tasks int
	// Scale converts one virtual time unit to wall-clock duration.
	Scale time.Duration
	// Work, if non-nil, runs on the executing node for every task.
	Work func(node tree.NodeID, task int)
}

// ExecReport is the outcome of one ExecuteAdaptive run.
type ExecReport struct {
	// Report is the underlying runtime report (always present, even when
	// the controller returns an error: the batch is run to completion).
	Report *runtime.Report
	// Adaptations lists the detect/re-solve/swap cycles, in order.
	Adaptations []Adaptation
	// Healed reports whether monitoring ended with no unresolved drift.
	Healed bool
}

// ExecuteAdaptive runs a batch on the wall-clock runtime with the fault
// timeline injected via SetPhysics and a monitor goroutine watching the
// per-node execution counters window by window. On drift it re-runs the
// distributed procedure on the currently measured platform (crashed
// nodes pruned by the resilient wave) and hot-swaps the schedule through
// runtime.Swap. The batch always runs to completion — adaptation errors
// are reported alongside the completed report, never by abandoning
// in-flight tasks.
//
// Unlike SimulateAdaptive the monitor only watches throughput (the live
// counters), not buffer watermarks, and detection times are approximate:
// wall-clock sleeps jitter, so thresholds should be looser than in
// simulation.
func ExecuteAdaptive(s *sched.Schedule, opt ExecOptions) (*ExecReport, error) {
	opt.Options = opt.Options.withDefaults(16)
	if s == nil || s.Tree == nil {
		return nil, fmt.Errorf("adapt: no schedule")
	}
	physics, err := Timeline(s.Tree, opt.Faults, rat.FromInt(opt.CrashFactor))
	if err != nil {
		return nil, err
	}
	window, err := opt.windowFor(s)
	if err != nil {
		return nil, err
	}
	e, err := runtime.Start(runtime.Config{
		Schedule: s,
		Tasks:    opt.Tasks,
		Scale:    opt.Scale,
		Work:     opt.Work,
		Obs:      opt.Obs,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	scaleOf := func(v rat.R) time.Duration {
		return time.Duration(v.Float64() * float64(opt.Scale))
	}

	var wg sync.WaitGroup

	// Fault injector: publish each physics change at its scheduled wall
	// -clock instant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, pc := range physics {
			wait := scaleOf(pc.At) - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-e.Done():
					return
				}
			}
			if err := e.SetPhysics(pc.Tree); err != nil {
				// Shape is validated by Timeline; this is unreachable short
				// of a concurrent topology change.
				panic(err)
			}
			opt.Obs.Emit("fault", obs.A("at", pc.At.String()))
		}
	}()

	// Monitor: windowed counter deltas vs the active schedule's α.
	rep := &ExecReport{Healed: true}
	var monErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		active := s
		det := opt.detector()
		win := window
		base := e.Snapshot()
		grace, _ := active.MaxStartupBound().Div(win).Ceil().Int64()
		idx := int64(0)
		for {
			select {
			case <-e.Done():
				return
			case <-time.After(scaleOf(win)):
			}
			// Tail guard: once the batch cannot fill another full window,
			// per-node quotas under-run for benign reasons; stop watching.
			if float64(opt.Tasks-e.Completed()) < batchRate(active).Mul(win).Float64() {
				return
			}
			snap := e.Snapshot()
			ws := counterWindow(active, base, snap, win)
			base = snap
			idx++
			if idx <= grace {
				continue
			}
			if !det.Feed(ws) {
				continue
			}
			vt := rat.FromInt(int64(time.Since(start) / opt.Scale))
			drift := Drift{At: vt, Window: ws}
			emitDrift(opt.Obs, drift)
			// The engine classifies confirmed drift; approx marks the
			// wall-clock detection instant (sleep jitter ⇒ "t≈").
			if opt.MaxAdapts == 0 {
				monErr = engine.StaleDrift(vt, true, ws.WorstNode, ws.MinRatio)
				rep.Healed = false
				return
			}
			if len(rep.Adaptations) >= opt.MaxAdapts {
				monErr = engine.AdaptExhausted(vt, true, len(rep.Adaptations))
				rep.Healed = false
				return
			}
			st, err := full{opt.Options}.resolve(drift, e.Physics(), win)
			if err != nil {
				monErr = err
				rep.Healed = false
				return
			}
			ad := st.ad
			if err := e.Swap(ad.Schedule); err != nil {
				// The batch finished releasing before the boundary; nothing
				// left to adapt.
				return
			}
			ad.Drift, ad.SwapAt = drift, rat.FromInt(int64(time.Since(start)/opt.Scale))
			rep.Adaptations = append(rep.Adaptations, ad)
			opt.Obs.Emit("swap",
				obs.A("at", ad.SwapAt.String()),
				obs.A("throughput", ad.Throughput.String()))
			active = ad.Schedule
			if w, werr := opt.windowFor(active); werr == nil {
				win = w
			}
			det = opt.detector()
			base = e.Snapshot()
			grace, _ = active.MaxStartupBound().Div(win).Ceil().Int64()
			idx = 0
		}
	}()

	runRep, runErr := e.Wait()
	wg.Wait()
	rep.Report = runRep
	if runErr != nil {
		return rep, runErr
	}
	return rep, monErr
}

// counterWindow builds a throughput-only WindowStat from two counter
// snapshots one window apart.
func counterWindow(s *sched.Schedule, base, snap []int64, window rat.R) analyze.WindowStat {
	ws := analyze.WindowStat{MinRatio: 1}
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		if !ns.Active || !ns.Alpha.IsPos() {
			continue
		}
		expected := ns.Alpha.Mul(window).Float64()
		if expected < 1 {
			continue
		}
		ratio := float64(snap[ns.Node]-base[ns.Node]) / expected
		if ratio < ws.MinRatio {
			ws.MinRatio = ratio
			ws.WorstNode = s.Tree.Name(ns.Node)
		}
	}
	return ws
}

// batchRate is the schedule's aggregate consumption rate Σα.
func batchRate(s *sched.Schedule) rat.R {
	sum := rat.Zero
	for i := range s.Nodes {
		if s.Nodes[i].Active {
			sum = sum.Add(s.Nodes[i].Alpha)
		}
	}
	return sum
}
