package sim

import (
	"testing"

	"bwc/internal/des"
	"bwc/internal/engine"
	"bwc/internal/rat"
	"bwc/internal/sched"
	"bwc/internal/trace"
	"bwc/internal/tree"
)

// TestStopCutsPeriod drives the root's pacing with a Stop that falls on a
// slot instant in the middle of the third period: exactly the slots with
// At < Stop are released, in pattern order, and no release is scheduled
// at or past Stop.
func TestStopCutsPeriod(t *testing.T) {
	tr := tree.NewBuilder().
		Root("P0", rat.Two).
		Child("P0", "P1", rat.One, rat.FromInt(3)).
		Child("P0", "P2", rat.FromInt(3), rat.Two).
		MustBuild()
	s := buildSchedule(t, tr, sched.Options{})
	pacer := engine.NewPacer(s, false)
	if pacer.Len() < 4 {
		t.Fatalf("root pattern of %d slots too short to cut", pacer.Len())
	}
	stop := pacer.At(2, pacer.Len()/2)

	type release struct {
		at   rat.R
		dest sched.Dest
	}
	var want []release
	for p := int64(0); pacer.PeriodStart(p).Less(stop); p++ {
		for i := 0; i < pacer.Len(); i++ {
			if at := pacer.At(p, i); at.Less(stop) {
				want = append(want, release{at, pacer.Dest(i)})
			}
		}
	}
	if full := 3 * pacer.Len(); len(want) <= 2*pacer.Len() || len(want) >= full {
		t.Fatalf("stop %s releases %d of %d slots: not a part-way cut", stop, len(want), full)
	}

	rec := engine.NewRecorder()
	sm := &simulator{
		eng:   &des.Engine{},
		t:     tr,
		tr:    &trace.Trace{Tree: tr},
		opt:   Options{Stop: stop},
		stats: &Stats{StopAt: stop},
	}
	sm.core = engine.New(engine.Config{Schedule: s, Clock: sm.eng, Hooks: sm, Recorder: rec})
	sm.release(pacer, rat.Zero, stop, 0)

	var got []rat.R
	for {
		at, ok := sm.eng.NextAt()
		if !ok {
			break
		}
		before := sm.stats.Generated
		sm.eng.Step()
		if sm.stats.Generated > before {
			if !at.Less(stop) {
				t.Fatalf("release at %s, at or past stop %s", at, stop)
			}
			got = append(got, at)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("released %d tasks, want %d", len(got), len(want))
	}
	routes := rec.Routes(tr.Root())
	for i, w := range want {
		if !got[i].Equal(w.at) || routes[i] != w.dest {
			t.Fatalf("release %d: %v@%s, want %v@%s", i, routes[i], got[i], w.dest, w.at)
		}
	}
}
