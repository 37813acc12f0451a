package server

import (
	"container/list"
	"sort"
	"sync"

	"bwc"
	apiv1 "bwc/api/v1"
	"bwc/internal/obs"
	"bwc/internal/tree"
)

// shard is the LRU-bounded session fleet: one bwc.Session per platform
// fingerprint (the tenant key). Eviction drops the Session from the map
// only — handlers holding the pointer finish their in-flight solves
// untouched — and captures the platform's solved state as a bounded
// "ghost" so a re-submitted evicted platform re-primes warm instead of
// solving cold: exactly (same fingerprint) via Session.Prime, or
// incrementally (same shape, drifted weights) via Prime +
// InvalidateDelta's spine re-solve.
type shard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*shardEntry
	order   *list.List // *shardEntry, front = most recently used
	ghosts  map[string]ghost
	gorder  *list.List // fingerprint string, front = most recent
	evicted int
	scope   *obs.Scope
}

type shardEntry struct {
	fp   string
	tree *bwc.Tree
	sess *bwc.Session
	elem *list.Element
}

// ghost is the retained state of an evicted platform: enough to re-prime
// a fresh Session without re-running the negotiation wave.
type ghost struct {
	tree *bwc.Tree
	res  *bwc.Result
	elem *list.Element
}

func newShard(capacity int, scope *obs.Scope) *shard {
	if capacity <= 0 {
		capacity = 64
	}
	return &shard{
		cap:     capacity,
		entries: make(map[string]*shardEntry),
		order:   list.New(),
		ghosts:  make(map[string]ghost),
		gorder:  list.New(),
		scope:   scope,
	}
}

// fpLabel shortens a fingerprint for metric labels.
func fpLabel(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// counter bumps one per-tenant cache counter (no-op without a scope).
func (sh *shard) counter(name, help, fp string) {
	sh.scope.Registry().CounterLabeled(name, help, "fp", fpLabel(fp)).Inc()
}

// CountHit / CountMiss export one submit's cache outcome as per-tenant
// metrics; eviction counting happens inside Get.
func (sh *shard) CountHit(fp string) {
	sh.counter("bwschedd_cache_hits_total", "submits served from a tenant's session memo", fp)
}

func (sh *shard) CountMiss(fp string) {
	sh.counter("bwschedd_cache_misses_total", "submits that ran the negotiation wave cold", fp)
}

// Get returns the tenant Session for t, creating (and possibly warm
// re-priming) it on a miss. reprimed is true only for the call that
// re-admitted an evicted platform from its ghost — the submit that gets
// the "reprimed" cache marker.
func (sh *shard) Get(t *bwc.Tree) (sess *bwc.Session, fp string, reprimed bool) {
	fp = bwc.PlatformFingerprint(t)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[fp]; ok {
		sh.order.MoveToFront(e.elem)
		return e.sess, fp, false
	}
	sess = bwc.NewSession()
	if g, ok := sh.ghosts[fp]; ok {
		// Exact match: the evicted platform came back unchanged.
		sess.Prime(g.tree, g.res)
		sh.dropGhostLocked(fp)
		reprimed = true
	} else if g, old, ok := sh.findShapeGhostLocked(t); ok {
		// Same shape, drifted weights: carry the retained result onto
		// the mutated platform along the dirty spine. The ghost is
		// consumed only when the carry succeeded; otherwise it stays
		// for its own platform's re-admission.
		sess.Prime(g.tree, g.res)
		if sess.InvalidateDelta(g.tree, t) != nil {
			reprimed = true
			sh.dropGhostLocked(old)
		}
	}
	e := &shardEntry{fp: fp, tree: t, sess: sess}
	e.elem = sh.order.PushFront(e)
	sh.entries[fp] = e
	for len(sh.entries) > sh.cap {
		sh.evictLocked()
	}
	return sess, fp, reprimed
}

// Lookup returns the live Session for a fingerprint without admitting
// anything.
func (sh *shard) Lookup(fp string) (*bwc.Session, *bwc.Tree, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[fp]
	if !ok {
		return nil, nil, false
	}
	return e.sess, e.tree, true
}

// findShapeGhostLocked returns the most recently evicted ghost whose
// platform has t's shape (same names, parents and switch flags), the
// precondition of a weight-delta re-prime. Walking gorder makes the
// choice deterministic.
func (sh *shard) findShapeGhostLocked(t *bwc.Tree) (ghost, string, bool) {
	for el := sh.gorder.Front(); el != nil; el = el.Next() {
		fp := el.Value.(string)
		g := sh.ghosts[fp]
		if _, err := tree.DiffWeights(g.tree, t); err == nil {
			return g, fp, true
		}
	}
	return ghost{}, "", false
}

func (sh *shard) dropGhostLocked(fp string) {
	if g, ok := sh.ghosts[fp]; ok {
		sh.gorder.Remove(g.elem)
		delete(sh.ghosts, fp)
	}
}

// evictLocked drops the least-recently-used tenant. The Session object
// itself is only unhooked, never torn down: any handler still holding it
// completes its in-flight work. If the platform's solve had completed,
// its state is retained as a ghost (bounded by the same capacity).
func (sh *shard) evictLocked() {
	back := sh.order.Back()
	if back == nil {
		return
	}
	e := back.Value.(*shardEntry)
	sh.order.Remove(back)
	delete(sh.entries, e.fp)
	sh.evicted++
	sh.counter("bwschedd_cache_evictions_total", "tenant sessions evicted by the LRU bound", e.fp)
	if res, ok := e.sess.Cached(e.tree); ok {
		sh.dropGhostLocked(e.fp)
		g := ghost{tree: e.tree, res: res}
		g.elem = sh.gorder.PushFront(e.fp)
		sh.ghosts[e.fp] = g
		for len(sh.ghosts) > sh.cap {
			oldest := sh.gorder.Back()
			sh.gorder.Remove(oldest)
			delete(sh.ghosts, oldest.Value.(string))
		}
	}
}

// Len / Cap / Evicted are the shard-level counters of StatsResponse.
func (sh *shard) Len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.entries)
}

func (sh *shard) Cap() int { return sh.cap }

func (sh *shard) Evicted() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.evicted
}

// Tenants snapshots every live tenant's per-fingerprint counters (safe
// under concurrent eviction: Session.Stats deep-copies under its own
// lock), sorted most-recently-used first.
func (sh *shard) Tenants() []apiv1.TenantStats {
	sh.mu.Lock()
	ordered := make([]*shardEntry, 0, len(sh.entries))
	for el := sh.order.Front(); el != nil; el = el.Next() {
		ordered = append(ordered, el.Value.(*shardEntry))
	}
	sh.mu.Unlock()
	out := make([]apiv1.TenantStats, 0, len(ordered))
	for _, e := range ordered {
		st := e.sess.StatsFor(e.fp)
		ts := apiv1.TenantStats{
			Fingerprint: e.fp,
			Hits:        st.Hits,
			Misses:      st.Misses,
			Evictions:   st.Evictions,
		}
		if res, ok := e.sess.Cached(e.tree); ok {
			ts.Throughput = res.Throughput.String()
		}
		out = append(out, ts)
	}
	return out
}

// Tenant returns one fingerprint's stats (ok false when not live).
func (sh *shard) Tenant(fp string) (apiv1.TenantStats, bool) {
	sess, tree, ok := sh.Lookup(fp)
	if !ok {
		return apiv1.TenantStats{}, false
	}
	st := sess.StatsFor(fp)
	ts := apiv1.TenantStats{
		Fingerprint: fp,
		Hits:        st.Hits,
		Misses:      st.Misses,
		Evictions:   st.Evictions,
	}
	if res, ok := sess.Cached(tree); ok {
		ts.Throughput = res.Throughput.String()
	}
	return ts, true
}

// Fingerprints returns the live tenant fingerprints, sorted.
func (sh *shard) Fingerprints() []string {
	sh.mu.Lock()
	fps := make([]string, 0, len(sh.entries))
	for fp := range sh.entries {
		fps = append(fps, fp)
	}
	sh.mu.Unlock()
	sort.Strings(fps)
	return fps
}
