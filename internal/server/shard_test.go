package server

import (
	"sync"
	"sync/atomic"
	"testing"

	"bwc"
)

const (
	platA = "P0 - - 9\nP1 P0 1/2 8\nP2 P0 2 3\n"
	platB = "Q0 - - 4\nQ1 Q0 1 2\n"
	platC = "R0 - - 6\nR1 R0 1/3 5\nR2 R0 3 7\nR3 R1 2 4\n"
	// platAMut is platA with P1's link degraded: same shape, drifted
	// weight — the incremental re-prime case.
	platAMut = "P0 - - 9\nP1 P0 2 8\nP2 P0 2 3\n"
)

func mustParse(t *testing.T, text string) *bwc.Tree {
	t.Helper()
	tr, err := bwc.ParsePlatformString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return tr
}

// TestShardLRUEviction: the shard keeps at most cap tenants, eviction is
// LRU order, and a re-submitted evicted platform re-primes from its
// ghost — its first SolveCached after re-admission is already a hit.
func TestShardLRUEviction(t *testing.T) {
	sh := newShard(2, nil)
	a, b, c := mustParse(t, platA), mustParse(t, platB), mustParse(t, platC)

	sessA, fpA, reprimed := sh.Get(a)
	if reprimed {
		t.Fatal("first admission must not be reprimed")
	}
	if _, cached := sessA.SolveCached(a); cached {
		t.Fatal("first solve must be cold")
	}
	sh.Get(b)
	if sh.Len() != 2 || sh.Evicted() != 0 {
		t.Fatalf("len=%d evicted=%d, want 2/0", sh.Len(), sh.Evicted())
	}
	sh.Get(c) // evicts a (LRU)
	if sh.Len() != 2 || sh.Evicted() != 1 {
		t.Fatalf("len=%d evicted=%d, want 2/1", sh.Len(), sh.Evicted())
	}
	if _, _, ok := sh.Lookup(fpA); ok {
		t.Fatal("evicted fingerprint still live")
	}

	// Re-admission: exact ghost → reprimed, and the solve is warm.
	sessA2, _, reprimed := sh.Get(a)
	if !reprimed {
		t.Fatal("re-admitted evicted platform must report reprimed")
	}
	res, cached := sessA2.SolveCached(a)
	if !cached {
		t.Fatal("re-primed platform must not solve cold")
	}
	want := bwc.Solve(a).Throughput
	if !res.Throughput.Equal(want) {
		t.Fatalf("re-primed throughput %s, want %s", res.Throughput, want)
	}
}

// TestShardRepriveIncremental: an evicted platform that comes back with
// drifted weights (same shape) re-primes through the incremental spine
// re-solve instead of solving cold, and the carried result is exact.
func TestShardRepriveIncremental(t *testing.T) {
	sh := newShard(1, nil)
	a, b, aMut := mustParse(t, platA), mustParse(t, platB), mustParse(t, platAMut)

	sessA, _, _ := sh.Get(a)
	sessA.SolveCached(a)
	sh.Get(b) // evicts a with its solved ghost

	sessMut, _, reprimed := sh.Get(aMut)
	if !reprimed {
		t.Fatal("mutated re-admission must report reprimed (incremental path)")
	}
	res, cached := sessMut.SolveCached(aMut)
	if !cached {
		t.Fatal("incrementally re-primed platform must not solve cold")
	}
	want := bwc.Solve(aMut).Throughput
	if !res.Throughput.Equal(want) {
		t.Fatalf("incremental re-prime throughput %s, want full re-solve %s", res.Throughput, want)
	}
}

// TestShardUnrelatedSameSizeKeepsGhost: cold submits of platforms that
// merely have an evicted platform's node count — concurrently, under
// -race — must not consume its ghost, so the evicted platform's own
// later re-admission still re-primes warm.
func TestShardUnrelatedSameSizeKeepsGhost(t *testing.T) {
	// Capacity 2 bounds ghosts too: a's ghost plus the one unrelated
	// platform the three submits below evict.
	sh := newShard(2, nil)
	a := mustParse(t, platA)
	sessA, _, _ := sh.Get(a)
	sessA.SolveCached(a)
	sh.Get(mustParse(t, platB))
	sh.Get(mustParse(t, platC)) // evicts a with its solved ghost

	unrelated := []string{
		"S0 - - 5\nS1 S0 1 2\nS2 S0 3 4\n",
		"T0 - - 7\nT1 T0 2 5\nT2 T1 1 3\n", // a chain, not a star
		"U0 - - 2\nU1 U0 1 1\nU2 U0 1 1\n",
	}
	var wg sync.WaitGroup
	for _, text := range unrelated {
		u := mustParse(t, text)
		if u.Len() != a.Len() {
			t.Fatalf("fixture %q has %d nodes, want %d", text, u.Len(), a.Len())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, _, reprimed := sh.Get(u)
			if reprimed {
				t.Errorf("unrelated platform %s reported reprimed", u.Name(u.Root()))
			}
			if _, cached := sess.SolveCached(u); cached {
				t.Errorf("unrelated platform %s solved warm", u.Name(u.Root()))
			}
		}()
	}
	wg.Wait()

	sessA2, _, reprimed := sh.Get(a)
	if !reprimed {
		t.Fatal("evicted platform's ghost was consumed by an unrelated submit")
	}
	if _, cached := sessA2.SolveCached(a); !cached {
		t.Fatal("re-admitted platform solved cold")
	}
}

// TestShardShapeGhostMostRecentFirst: with two same-shape ghosts, a
// drifted re-admission carries the most recently evicted one and leaves
// the other in place.
func TestShardShapeGhostMostRecentFirst(t *testing.T) {
	sh := newShard(2, nil)
	a, aMut := mustParse(t, platA), mustParse(t, platAMut)
	for _, tr := range []*bwc.Tree{a, aMut} {
		sess, _, _ := sh.Get(tr)
		sess.SolveCached(tr)
	}
	sh.Get(mustParse(t, platB))
	sh.Get(mustParse(t, platC)) // ghosts now: aMut (most recent), a

	aMut2 := mustParse(t, "P0 - - 9\nP1 P0 2 8\nP2 P0 2 5\n")
	sess, _, reprimed := sh.Get(aMut2)
	if !reprimed {
		t.Fatal("drifted re-admission not reprimed")
	}
	if res, cached := sess.SolveCached(aMut2); !cached || !res.Throughput.Equal(bwc.Solve(aMut2).Throughput) {
		t.Fatalf("incremental carry cached=%v", cached)
	}
	if _, _, reprimed := sh.Get(a); !reprimed {
		t.Fatal("older same-shape ghost consumed instead of the most recent one")
	}
	if _, _, reprimed := sh.Get(aMut); reprimed {
		t.Fatal("most recent ghost survived its consumption")
	}
}

// TestShardInFlightSolveSurvivesEviction: eviction only unhooks the
// Session from the shard map — a handler that already holds the pointer
// completes its solve and reads a correct result.
func TestShardInFlightSolveSurvivesEviction(t *testing.T) {
	sh := newShard(1, nil)
	a, b, c := mustParse(t, platA), mustParse(t, platB), mustParse(t, platC)

	sess, _, _ := sh.Get(a)
	done := make(chan *bwc.Result)
	go func() {
		res, _ := sess.SolveCached(a)
		done <- res
	}()
	// Concurrently churn the shard so a's entry is evicted while the
	// solve may still be in flight.
	sh.Get(b)
	sh.Get(c)
	res := <-done
	want := bwc.Solve(a).Throughput
	if !res.Throughput.Equal(want) {
		t.Fatalf("in-flight solve across eviction: %s, want %s", res.Throughput, want)
	}
}

// TestShardExactlyOneColdSolve: concurrent submits of one new platform
// coalesce — exactly one caller observes cached == false.
func TestShardExactlyOneColdSolve(t *testing.T) {
	sh := newShard(4, nil)
	tr := mustParse(t, platC)
	const clients = 16
	var cold atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, _, _ := sh.Get(tr)
			if _, cached := sess.SolveCached(tr); !cached {
				cold.Add(1)
			}
		}()
	}
	wg.Wait()
	if cold.Load() != 1 {
		t.Fatalf("%d cold solves, want exactly 1", cold.Load())
	}
}

// TestShardConcurrentChurn drives submits, evictions and invalidations
// across three platforms from many goroutines (run under -race): no
// solve is ever dropped mid-flight and every final result is exact.
func TestShardConcurrentChurn(t *testing.T) {
	sh := newShard(2, nil) // cap below the working set forces evictions
	texts := []string{platA, platB, platC}
	trees := make([]*bwc.Tree, len(texts))
	wants := make([]bwc.Rational, len(texts))
	for i, text := range texts {
		trees[i] = mustParse(t, text)
		wants[i] = bwc.Solve(trees[i]).Throughput
	}
	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				tr := trees[(w+i)%len(trees)]
				sess, _, _ := sh.Get(tr)
				res, _ := sess.SolveCached(tr)
				if !res.Throughput.Equal(wants[(w+i)%len(trees)]) {
					t.Errorf("worker %d iter %d: wrong throughput %s", w, i, res.Throughput)
					return
				}
				if i%7 == 0 {
					sess.Invalidate(tr)
				}
				if i%11 == 0 {
					sh.Tenants() // stats snapshot racing eviction
				}
			}
		}(w)
	}
	wg.Wait()
	if sh.Len() > 2 {
		t.Fatalf("shard exceeded its bound: %d", sh.Len())
	}
	// Final sanity: every platform still solves to its exact optimum.
	for i, tr := range trees {
		sess, _, _ := sh.Get(tr)
		res, _ := sess.SolveCached(tr)
		if !res.Throughput.Equal(wants[i]) {
			t.Fatalf("platform %d: final throughput %s, want %s", i, res.Throughput, wants[i])
		}
	}
}

// TestShardTenantStats: per-tenant counters surface through Tenants and
// Tenant, and a ghost-bounded shard never leaks.
func TestShardTenantStats(t *testing.T) {
	sh := newShard(2, nil)
	a := mustParse(t, platA)
	sess, fpA, _ := sh.Get(a)
	sess.SolveCached(a)
	sess.SolveCached(a)
	ts, ok := sh.Tenant(fpA)
	if !ok {
		t.Fatal("live tenant not found")
	}
	if ts.Misses != 1 || ts.Hits != 1 {
		t.Fatalf("tenant stats hits=%d misses=%d, want 1/1", ts.Hits, ts.Misses)
	}
	if ts.Throughput == "" {
		t.Fatal("solved tenant must report its throughput")
	}
	all := sh.Tenants()
	if len(all) != 1 || all[0].Fingerprint != fpA {
		t.Fatalf("Tenants = %+v, want the one live tenant", all)
	}
	if _, ok := sh.Tenant("nope"); ok {
		t.Fatal("unknown fingerprint must not resolve")
	}
}
