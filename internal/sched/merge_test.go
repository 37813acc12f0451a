package sched

import (
	"cmp"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"bwc/internal/bwfirst"
	"bwc/internal/treegen"
)

// sortedInterleave is the reference Figure-3 construction the merge in
// interleavePattern replaces: materialize all Ψ positions k/(ψ_d+1) and
// sort them by position, then smaller ψ, then smaller index. Positions
// compare by int64 cross-multiplication, exact while every ψ stays below
// 2^31 (the default MaxPatternLen is 2^20).
func sortedInterleave(ns *NodeSchedule) []Slot {
	ds := destCounts(ns)
	total := int64(0)
	for _, d := range ds {
		total += d.psi
	}
	slots := make([]Slot, 0, total)
	for _, d := range ds {
		for k := int64(1); k <= d.psi; k++ {
			slots = append(slots, Slot{Dest: d.dest, K: k, Of: d.psi + 1})
		}
	}
	slices.SortFunc(slots, func(a, b Slot) int {
		if c := cmp.Compare(a.K*b.Of, b.K*a.Of); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Of, b.Of); c != 0 {
			return c // smaller ψ wins the contested position
		}
		return cmp.Compare(a.Dest, b.Dest)
	})
	return slots
}

func assertSamePattern(t *testing.T, label string, got, want []Slot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: pattern length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		// Equal K and Of imply equal Pos().
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d = %v@%s, want %v@%s", label, i,
				got[i].Dest, got[i].Pos(), want[i].Dest, want[i].Pos())
		}
	}
}

// TestMergeMatchesSortedReference pins the k-way merge to the sort-based
// construction on every generator family, slot for slot.
func TestMergeMatchesSortedReference(t *testing.T) {
	checked := 0
	for _, k := range treegen.Kinds {
		for _, n := range []int{5, 10, 12, 25, 48} {
			for seed := int64(1); seed <= 4; seed++ {
				tr := treegen.Generate(k, n, seed)
				s, err := Build(bwfirst.Solve(tr), Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range s.Nodes {
					ns := &s.Nodes[i]
					if ns.Pattern == nil {
						continue
					}
					label := fmt.Sprintf("%v-%d-s%d/%s", k, n, seed, tr.Name(ns.Node))
					assertSamePattern(t, label, ns.Pattern, sortedInterleave(ns))
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no materialized pattern compared")
	}
}

// TestCheckPatternRejects exercises the integer-only pattern check.
func TestCheckPatternRejects(t *testing.T) {
	base := func() *NodeSchedule {
		ns := &NodeSchedule{Psi0: big.NewInt(1), Psi: []*big.Int{big.NewInt(2)}}
		ns.Pattern = interleavePattern(ns)
		return ns
	}
	if err := checkPattern(base()); err != nil {
		t.Fatalf("well-formed pattern rejected: %v", err)
	}
	for name, mutate := range map[string]func(p []Slot){
		"swap":      func(p []Slot) { p[0], p[2] = p[2], p[0] },
		"zero-pos":  func(p []Slot) { p[0].K = 0 },
		"one-pos":   func(p []Slot) { p[2].K = p[2].Of },
		"bad-dest":  func(p []Slot) { p[1].Dest = 5 },
		"miscount":  func(p []Slot) { p[1].Dest = 0 },
		"below-own": func(p []Slot) { p[1].Dest = Self - 1 },
	} {
		ns := base()
		mutate(ns.Pattern)
		if err := checkPattern(ns); err == nil {
			t.Errorf("%s: mutated pattern %v accepted", name, ns.Pattern)
		}
	}
}
