package bwc_test

import (
	"errors"
	"testing"
	"time"

	"bwc"
)

// TestSolveDistributedResilient: the resilience options switch the
// facade onto the timeout/retry wave, which prunes an unresponsive
// child instead of hanging, and the re-negotiated throughput matches a
// first-principles solve of the platform without that subtree.
func TestSolveDistributedResilient(t *testing.T) {
	tr := bwc.PaperExampleTree()
	res, err := bwc.SolveDistributed(tr,
		bwc.WithUnresponsive("P2"),
		bwc.WithTimeout(5*time.Millisecond),
		bwc.WithBackoff(time.Millisecond),
		bwc.WithRetry(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pruned) != 1 || res.Pruned[0].Name != "P2" {
		t.Fatalf("pruned %+v, want exactly P2", res.Pruned)
	}
	direct := bwc.Solve(bwc.PaperExampleTree())
	if res.Throughput.Cmp(direct.Throughput) >= 0 {
		t.Fatalf("pruning P2 kept throughput %s, want below the full platform's %s",
			res.Throughput, direct.Throughput)
	}
}

// TestSolveDistributedUnknownUnresponsive: naming a node that isn't in
// the platform is a caller bug and must error, not silently resolve.
func TestSolveDistributedUnknownUnresponsive(t *testing.T) {
	_, err := bwc.SolveDistributed(bwc.PaperExampleTree(),
		bwc.WithUnresponsive("P99"), bwc.WithTimeout(5*time.Millisecond))
	if err == nil {
		t.Fatal("unknown unresponsive node accepted")
	}
}

// TestSimulateAdaptiveFacade: the one-call adaptive loop on the paper's
// degraded-link scenario heals via exactly one re-negotiation.
func TestSimulateAdaptiveFacade(t *testing.T) {
	res := bwc.Solve(bwc.PaperExampleTree())
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bwc.SimulateAdaptive(s,
		bwc.WithFaults(bwc.DegradeLink(bwc.RatInt(120), "P1", bwc.RatInt(4))),
		bwc.WithStop(bwc.RatInt(400)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healed {
		t.Fatal("degraded-link run did not heal")
	}
	if len(rep.Adaptations) != 1 {
		t.Fatalf("%d adaptations, want 1", len(rep.Adaptations))
	}
	if rep.Pre == nil || rep.Pre.Healthy() {
		t.Error("pre-swap regime should fail conformance under the stale schedule")
	}
	if rep.Post == nil || !rep.Post.Healthy() {
		t.Error("post-swap regime should pass conformance")
	}
}

// TestDetectDriftSentinel: detect-only drift reports classify as
// ErrScheduleStale via errors.Is.
func TestDetectDriftSentinel(t *testing.T) {
	res := bwc.Solve(bwc.PaperExampleTree())
	s, err := bwc.BuildSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	err = bwc.DetectDrift(s,
		bwc.WithFaults(bwc.DegradeLink(bwc.RatInt(120), "P1", bwc.RatInt(4))),
		bwc.WithStop(bwc.RatInt(400)),
	)
	if !errors.Is(err, bwc.ErrScheduleStale) {
		t.Fatalf("DetectDrift = %v, want ErrScheduleStale", err)
	}
	// A healthy run reports no drift.
	if err := bwc.DetectDrift(s, bwc.WithStop(bwc.RatInt(200))); err != nil {
		t.Fatalf("clean run reported drift: %v", err)
	}
}

// TestSimulateChurnDetectOnly: with adaptation disabled, the churn
// controller's first drift surfaces as ErrScheduleStale with zero
// adaptations, as it does for the adaptive controller.
func TestSimulateChurnDetectOnly(t *testing.T) {
	tr := bwc.PaperExampleTree()
	s, err := bwc.BuildSchedule(bwc.Solve(tr))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bwc.SimulateChurn(s,
		bwc.WithChurn(bwc.ChurnConfig{Seed: 6, Rate: 3}),
		bwc.WithStop(bwc.RatInt(600)),
		bwc.WithDetectOnly(),
	)
	if !errors.Is(err, bwc.ErrScheduleStale) || errors.Is(err, bwc.ErrAdaptTimeout) {
		t.Fatalf("SimulateChurn detect-only = %v, want ErrScheduleStale", err)
	}
	if rep == nil || len(rep.Adaptations) != 0 {
		t.Fatalf("detect-only churn run adapted: %+v", rep)
	}
}

// TestErrNotATreeSentinel: structural platform errors — from the text
// parser and from the builder — classify as ErrNotATree.
func TestErrNotATreeSentinel(t *testing.T) {
	if _, err := bwc.ParsePlatformString("P0 - - 9\nP1 P0 0 8\n"); !errors.Is(err, bwc.ErrNotATree) {
		t.Fatalf("zero comm parse error = %v, want ErrNotATree", err)
	}
	b := bwc.NewBuilder()
	b.Root("A", bwc.RatInt(1))
	b.Child("missing", "B", bwc.RatInt(1), bwc.RatInt(1))
	if _, err := b.Build(); !errors.Is(err, bwc.ErrNotATree) {
		t.Fatalf("orphan child build error = %v, want ErrNotATree", err)
	}
}
