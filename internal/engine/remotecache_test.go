package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/api"
)

// fakeRemote is an in-memory RemoteCache that counts its calls.
type fakeRemote struct {
	mu       sync.Mutex
	m        map[string]api.CachedResult
	lookups  int
	acquires int
	stores   int
}

func newFakeRemote() *fakeRemote { return &fakeRemote{m: make(map[string]api.CachedResult)} }

func (f *fakeRemote) Lookup(_ context.Context, key string) (api.CachedResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lookups++
	r, ok := f.m[key]
	return r, ok
}

func (f *fakeRemote) Acquire(_ context.Context, key string) (api.CachedResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acquires++
	r, ok := f.m[key]
	return r, ok
}

func (f *fakeRemote) Store(_ context.Context, key string, r api.CachedResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores++
	f.m[key] = r
}

func (f *fakeRemote) counts() (lookups, acquires, stores int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lookups, f.acquires, f.stores
}

func (f *fakeRemote) get(key string) (api.CachedResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.m[key]
	return r, ok
}

// TestCachePeekConsultsRemoteAndAdmits proves the lookup order memory →
// remote, and that a remote hit is admitted locally so the next peek
// stays local.
func TestCachePeekConsultsRemoteAndAdmits(t *testing.T) {
	rem := newFakeRemote()
	rem.m["k"] = api.CachedResult{Name: "k", Text: "remote"}
	c := NewCache()
	c.SetRemote(rem)

	r, ok := c.peek(context.Background(), "k")
	if !ok || r.Text != "remote" {
		t.Fatalf("peek via remote: ok=%v r=%+v", ok, r)
	}
	if r, ok = c.peek(context.Background(), "k"); !ok || r.Text != "remote" {
		t.Fatalf("second peek: ok=%v r=%+v", ok, r)
	}
	if lookups, _, _ := rem.counts(); lookups != 1 {
		t.Fatalf("remote lookups %d, want 1 (admitted result must serve locally)", lookups)
	}
}

// TestCacheFinishWritesThroughToRemote proves a locally computed
// success becomes visible fleet-wide exactly once, and that failures
// never reach the remote tier.
func TestCacheFinishWritesThroughToRemote(t *testing.T) {
	rem := newFakeRemote()
	c := NewCache()
	c.SetRemote(rem)

	if _, hit := c.begin(context.Background(), "k"); hit {
		t.Fatal("empty cache must hand the computation to the caller")
	}
	c.finish("k", Result{Name: "k", Text: "computed"})
	if _, acquires, stores := rem.counts(); acquires != 1 || stores != 1 {
		t.Fatalf("acquires=%d stores=%d, want 1/1", acquires, stores)
	}
	// A duplicate finish (sharded merge path) must not re-store.
	c.finish("k", Result{Name: "k", Text: "computed"})
	if _, _, stores := rem.counts(); stores != 1 {
		t.Fatalf("duplicate finish re-stored (stores=%d)", stores)
	}

	if _, hit := c.begin(context.Background(), "fail"); hit {
		t.Fatal("unexpected hit")
	}
	c.finish("fail", Result{Name: "fail", Err: "boom"})
	if _, _, stores := rem.counts(); stores != 1 {
		t.Fatalf("failure was written through (stores=%d)", stores)
	}
}

// TestCacheBeginAdmitsRemoteResultWithoutEcho proves a result another
// machine computed (returned by Acquire) is served as a hit and cached
// locally, without being written back to the remote.
func TestCacheBeginAdmitsRemoteResultWithoutEcho(t *testing.T) {
	rem := newFakeRemote()
	rem.m["k"] = api.CachedResult{Name: "k", Text: "theirs"}
	c := NewCache()
	c.SetRemote(rem)

	r, hit := c.begin(context.Background(), "k")
	if !hit || r.Text != "theirs" {
		t.Fatalf("begin over remote result: hit=%v r=%+v", hit, r)
	}
	if _, _, stores := rem.counts(); stores != 0 {
		t.Fatalf("remote result echoed back (stores=%d)", stores)
	}
	// Served locally from here on.
	if r, hit = c.begin(context.Background(), "k"); !hit || r.Text != "theirs" {
		t.Fatalf("second begin: hit=%v r=%+v", hit, r)
	}
	if _, acquires, _ := rem.counts(); acquires != 1 {
		t.Fatalf("remote acquires %d, want 1", acquires)
	}
}

// TestCacheTwoTiersFillNearerTierWithoutEcho proves the tier order: a
// hit at tier 2 (the fleet plane) is copied into tier 1 (the local
// store) and never stored back into tier 2, on both the peek and the
// begin path, while a computed success lands in both tiers.
func TestCacheTwoTiersFillNearerTierWithoutEcho(t *testing.T) {
	near, far := newFakeRemote(), newFakeRemote()
	far.m["peeked"] = api.CachedResult{Name: "peeked", Text: "far"}
	far.m["begun"] = api.CachedResult{Name: "begun", Text: "far"}
	c := NewCache()
	c.SetRemote(near, far)
	ctx := context.Background()

	if r, ok := c.peek(ctx, "peeked"); !ok || r.Text != "far" {
		t.Fatalf("peek via tier 2: ok=%v r=%+v", ok, r)
	}
	if r, hit := c.begin(ctx, "begun"); !hit || r.Text != "far" {
		t.Fatalf("begin via tier 2: hit=%v r=%+v", hit, r)
	}
	for _, key := range []string{"peeked", "begun"} {
		if r, ok := near.get(key); !ok || r.Text != "far" {
			t.Fatalf("%s: tier-2 hit not admitted into tier 1 (ok=%v r=%+v)", key, ok, r)
		}
	}
	if _, _, stores := far.counts(); stores != 0 {
		t.Fatalf("tier-2 hits echoed back to tier 2 (stores=%d)", stores)
	}

	if _, hit := c.begin(ctx, "computed"); hit {
		t.Fatal("a key no tier holds must be computed")
	}
	c.finish("computed", Result{Name: "computed", Text: "mine", Data: map[string]int{"x": 1}})
	for name, tier := range map[string]*fakeRemote{"tier 1": near, "tier 2": far} {
		r, ok := tier.get("computed")
		if !ok || r.Text != "mine" || string(r.Data) != `{"x":1}` {
			t.Fatalf("%s missing the computed success (ok=%v r=%+v)", name, ok, r)
		}
	}
	if _, _, stores := near.counts(); stores != 3 {
		t.Fatalf("tier 1 stores=%d, want 3 (two admitted hits + one success)", stores)
	}
	if _, _, stores := far.counts(); stores != 1 {
		t.Fatalf("tier 2 stores=%d, want 1 (the computed success only)", stores)
	}
}
