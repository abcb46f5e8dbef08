package engine

import (
	"context"
	"sync"

	"repro/internal/api"
)

// RemoteCache is one result tier behind the process-local memory map:
// a directory-backed store (the -cache-dir tier) or the fleet-wide
// result plane. Tiers speak api.CachedResult, the form every one of
// them persists; the Cache converts at its boundary. Implementations
// must degrade, never fail: an unreachable backend looks like a miss
// (Lookup/Acquire) or a no-op (Store), so the worst case is recomputing
// locally — never a wrong or missing result.
type RemoteCache interface {
	// Lookup fetches key's result without claiming anything.
	Lookup(ctx context.Context, key string) (api.CachedResult, bool)
	// Acquire resolves who computes key across the tier's reach: a true
	// return hands back a stored result (possibly after waiting out
	// another machine's in-flight computation); a false return means
	// the caller now owns the computation — it must compute and Store.
	Acquire(ctx context.Context, key string) (api.CachedResult, bool)
	// Store writes through one result the tier does not hold yet.
	Store(ctx context.Context, key string, r api.CachedResult)
}

// Cache memoises successful job results across runs. Keys come from
// Job.Key (experiment id + preset hash), so editing a preset knob
// invalidates every cached result computed under it. The cache also
// tracks in-flight computations: a keyed job whose key is already being
// computed waits for that computation instead of duplicating it
// (single-flight). A Cache from NewCache lives in one process; SetRemote
// puts an ordered list of tiers behind its memory map (lookup order:
// memory, then each tier in turn). A hit at one tier is admitted into
// memory and stored into the tiers ahead of it, never echoed back to
// the tier it came from; a new success is stored into every tier.
type Cache struct {
	mu       sync.Mutex
	m        map[string]Result
	inflight map[string]chan struct{}
	// tiers are consulted in order after memory misses. All tier calls
	// happen outside mu — they block on disk or the network.
	tiers []RemoteCache
}

// NewCache returns an empty in-process result cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]Result), inflight: make(map[string]chan struct{})}
}

// SetRemote replaces the tiers behind memory, nearest first (no
// arguments detaches them all).
func (c *Cache) SetRemote(tiers ...RemoteCache) {
	c.mu.Lock()
	c.tiers = tiers
	c.mu.Unlock()
}

// remoteTiers snapshots the tier list under the lock.
func (c *Cache) remoteTiers() []RemoteCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tiers
}

// Len reports how many results are held in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// peek returns the cached result for key without claiming the key for
// computation (no single-flight bookkeeping). A memory miss consults
// the tiers in order; a tier hit is admitted into memory and the tiers
// ahead of it, so the next lookup is local.
func (c *Cache) peek(ctx context.Context, key string) (Result, bool) {
	if c == nil || key == "" {
		return Result{}, false
	}
	c.mu.Lock()
	r, ok := c.m[key]
	tiers := c.tiers
	c.mu.Unlock()
	if ok {
		return r, true
	}
	for i, t := range tiers {
		cr, ok := t.Lookup(ctx, key)
		if !ok {
			continue
		}
		r := FromCachedResult(cr)
		c.mu.Lock()
		if _, dup := c.m[key]; !dup {
			c.m[key] = r
		}
		c.mu.Unlock()
		storeAll(ctx, tiers[:i], key, cr)
		return r, true
	}
	return Result{}, false
}

// begin claims key for computation. It returns the cached result on a
// hit; otherwise, if another goroutine is already computing the key, it
// waits for that computation and retries. Once the claim is won locally
// the tiers arbitrate in order: a stored result (or one another machine
// finishes while we wait on its claim) comes back as a hit, and only a
// miss at every tier falls through to compute. A (Result{}, false)
// return means the caller owns the computation and must call
// finish(key, ...) exactly once.
func (c *Cache) begin(ctx context.Context, key string) (Result, bool) {
	if c == nil || key == "" {
		return Result{}, false
	}
	for {
		c.mu.Lock()
		if r, ok := c.m[key]; ok {
			c.mu.Unlock()
			return r, true
		}
		ch, busy := c.inflight[key]
		if !busy {
			tiers := c.tiers
			c.inflight[key] = make(chan struct{})
			c.mu.Unlock()
			for i, t := range tiers {
				if cr, ok := t.Acquire(ctx, key); ok {
					// A stored result: admit it into memory, release our
					// waiters through the normal path, and fill the tiers
					// ahead of this one — never the one it came from.
					r := FromCachedResult(cr)
					c.finishLocal(key, r)
					storeAll(ctx, tiers[:i], key, cr)
					return r, true
				}
			}
			return Result{}, false
		}
		c.mu.Unlock()
		<-ch
		// The computation finished: loop to pick up its result, or —
		// if it failed (failures are not cached) — claim the key.
	}
}

// finish records a computed result under key. Failures are not cached,
// so a flaky job re-runs; waiters claimed via begin are released either
// way. finish is also safe without a prior begin (sharded merges store
// their assembled result directly). New successes are stored into every
// tier, converted to the persisted form once.
func (c *Cache) finish(key string, r Result) {
	if c == nil || key == "" {
		return
	}
	if !c.finishLocal(key, r) {
		return
	}
	if tiers := c.remoteTiers(); len(tiers) > 0 {
		if cr, err := ToCachedResult(r); err == nil {
			storeAll(context.Background(), tiers, key, cr)
		}
	}
}

// finishLocal is finish without touching the tiers (used to admit
// results that came from one). It reports whether the result was newly
// stored (a success not previously cached).
func (c *Cache) finishLocal(key string, r Result) bool {
	if c == nil || key == "" {
		return false
	}
	c.mu.Lock()
	stored := false
	if r.Err == "" {
		_, dup := c.m[key]
		stored = !dup
		c.m[key] = r
	}
	if ch, ok := c.inflight[key]; ok {
		delete(c.inflight, key)
		close(ch)
	}
	c.mu.Unlock()
	return stored
}

// storeAll writes one result through to each of tiers.
func storeAll(ctx context.Context, tiers []RemoteCache, key string, cr api.CachedResult) {
	for _, t := range tiers {
		t.Store(ctx, key, cr)
	}
}
