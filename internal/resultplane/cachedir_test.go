package resultplane

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// These tests drive engine.Run over a cache directory the way
// dramlocker -cache-dir does: a Store opened on the directory is the one
// tier behind a fresh engine.Cache. Each open is a new process, in
// effect — the memory tier starts empty and everything replayed comes
// from plane.jsonl.

// openCacheDir opens dir as a StorePlane-tiered engine cache stamped
// with version. The caller closes the returned store.
func openCacheDir(tb testing.TB, dir, version string) (*engine.Cache, *Store) {
	tb.Helper()
	s, err := Open(dir)
	if err != nil {
		tb.Fatalf("open cache dir: %v", err)
	}
	c := engine.NewCache()
	c.SetRemote(&StorePlane{S: s, Version: version})
	return c, s
}

// countingRegistry registers n keyed jobs whose executions are tallied.
func countingRegistry(tb testing.TB, n int, runs *int, mu *sync.Mutex) *engine.Registry {
	tb.Helper()
	reg := engine.NewRegistry()
	for i := 0; i < n; i++ {
		i := i
		err := reg.Register(engine.Job{
			Name: fmt.Sprintf("job%02d", i),
			Key:  fmt.Sprintf("job%02d@hash", i),
			Run: func(ctx engine.Context) (engine.Output, error) {
				mu.Lock()
				*runs++
				mu.Unlock()
				return engine.Output{
					Text: fmt.Sprintf("out-%d", i),
					Data: map[string]any{"i": i, "seed": ctx.Seed},
				}, nil
			},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// TestDiskCachePersistsAcrossProcesses simulates two processes by opening
// the same cache dir twice: the second run must serve everything from
// the directory, computing nothing.
func TestDiskCachePersistsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0

	cold, coldStore := openCacheDir(t, dir, "v1")
	coldRep, err := engine.Run(countingRegistry(t, 5, &runs, &mu), engine.Options{Workers: 2, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if err := coldRep.Err(); err != nil {
		t.Fatal(err)
	}
	if err := coldStore.Close(); err != nil {
		t.Fatal(err)
	}
	if runs != 5 {
		t.Fatalf("cold run computed %d jobs, want 5", runs)
	}

	warm, warmStore := openCacheDir(t, dir, "v1")
	defer warmStore.Close()
	if n := warmStore.Metrics().Entries; n != 5 {
		t.Fatalf("warm store loaded %d entries, want 5", n)
	}
	warmRep, err := engine.Run(countingRegistry(t, 5, &runs, &mu), engine.Options{Workers: 2, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if err := warmRep.Err(); err != nil {
		t.Fatal(err)
	}
	if runs != 5 {
		t.Fatalf("warm run recomputed jobs: runs = %d, want 5", runs)
	}
	if warmRep.CachedCount() != 5 {
		t.Fatalf("warm run cached %d of 5", warmRep.CachedCount())
	}
	if m := warmStore.Metrics(); m.Puts != 0 {
		t.Fatalf("warm replay wrote %d entries back to the store", m.Puts)
	}
	for i, r := range warmRep.Results {
		if r.Text != coldRep.Results[i].Text {
			t.Fatalf("%s: text diverged: %q vs %q", r.Name, r.Text, coldRep.Results[i].Text)
		}
	}
	// The JSON report must render replayed Data byte-identically (Data is
	// kept as raw JSON, preserving the original field order).
	coldJSON, err := coldRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := warmRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	strip := func(b []byte) string {
		var rep map[string]any
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		// durations/wall/cached differ by construction; compare data+text.
		var keep []string
		for _, r := range rep["results"].([]any) {
			m := r.(map[string]any)
			keep = append(keep, fmt.Sprint(m["name"], m["text"], m["data"]))
		}
		return strings.Join(keep, "\n")
	}
	if strip(coldJSON) != strip(warmJSON) {
		t.Fatalf("JSON payloads diverged:\n%s\nvs\n%s", coldJSON, warmJSON)
	}
}

// TestDiskCacheVersionStampInvalidates: entries written under one code
// version must never replay under another, and stay in the directory —
// the older version still replays them after the newer one has written.
func TestDiskCacheVersionStampInvalidates(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0
	pass := func(version string) *engine.Report {
		t.Helper()
		c, s := openCacheDir(t, dir, version)
		defer s.Close()
		rep, err := engine.Run(countingRegistry(t, 3, &runs, &mu), engine.Options{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	pass("v1")
	if rep := pass("v2"); rep.CachedCount() != 0 || runs != 6 {
		t.Fatalf("v1 entries replayed under v2: cached=%d runs=%d", rep.CachedCount(), runs)
	}
	if rep := pass("v1"); rep.CachedCount() != 3 || runs != 6 {
		t.Fatalf("v1 entries lost after v2 wrote: cached=%d runs=%d", rep.CachedCount(), runs)
	}
}

// TestDiskCacheCorruptionIsAMiss is the corruption regression: truncated
// and garbage plane.jsonl files must degrade to misses, never to errors,
// and the recomputed entries must persist cleanly past the damage.
func TestDiskCacheCorruptionIsAMiss(t *testing.T) {
	var mu sync.Mutex

	seedDir := func(t *testing.T) string {
		dir := t.TempDir()
		runs := 0
		c, s := openCacheDir(t, dir, "v1")
		if _, err := engine.Run(countingRegistry(t, 4, &runs, &mu), engine.Options{Cache: c}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir
	}
	path := func(dir string) string { return filepath.Join(dir, planeFile) }

	cases := []struct {
		desc     string
		corrupt  func(t *testing.T, p string)
		wantWarm int // entries that must survive
	}{
		{
			desc: "truncated mid-line tail",
			corrupt: func(t *testing.T, p string) {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, truncateTail(b), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantWarm: 1, // at least the first full lines survive
		},
		{
			desc: "pure garbage file",
			corrupt: func(t *testing.T, p string) {
				if err := os.WriteFile(p, []byte(garbageFile), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantWarm: 0,
		},
		{
			desc: "garbage lines interleaved with good ones",
			corrupt: func(t *testing.T, p string) {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, interleaveGarbage(b), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantWarm: 4,
		},
	}
	for _, c := range cases {
		t.Run(c.desc, func(t *testing.T) {
			dir := seedDir(t)
			c.corrupt(t, path(dir))
			// The damaged dir must still work end to end: misses recompute
			// and the run succeeds.
			run := func() (cached, runs int) {
				t.Helper()
				cache, s := openCacheDir(t, dir, "v1")
				defer s.Close()
				rep, err := engine.Run(countingRegistry(t, 4, &runs, &mu), engine.Options{Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("run over corrupt store failed: %v", err)
				}
				return rep.CachedCount(), runs
			}
			cached, runs := run()
			if cached < c.wantWarm {
				t.Fatalf("replayed %d entries, want >= %d", cached, c.wantWarm)
			}
			if cached+runs != 4 {
				t.Fatalf("cached %d + computed %d != 4", cached, runs)
			}
			// What the damaged run recomputed was appended past the damage
			// and must replay now.
			if cached, runs := run(); cached != 4 || runs != 0 {
				t.Fatalf("after repair: cached %d, computed %d; want 4/0", cached, runs)
			}
		})
	}
}

// TestDiskCacheShardedWarmRun: a warm process replays a sharded job
// wholesale from the directory, computing no shard.
func TestDiskCacheShardedWarmRun(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	runs := 0
	build := func() *engine.Registry {
		reg := engine.NewRegistry()
		var shards []engine.Shard
		for i := 0; i < 3; i++ {
			i := i
			shards = append(shards, engine.Shard{
				Name: fmt.Sprintf("s%d", i),
				Run: func(engine.Context) (engine.Output, error) {
					mu.Lock()
					runs++
					mu.Unlock()
					return engine.Output{Data: []int{i, i * i}}, nil
				},
			})
		}
		err := reg.Register(engine.ShardedJob("grid", "", "grid@hash", shards,
			func(_ engine.Context, outs []engine.Output) (engine.Output, error) {
				var b strings.Builder
				for _, o := range outs {
					var v []int
					if err := engine.DecodeData(o.Data, &v); err != nil {
						return engine.Output{}, err
					}
					fmt.Fprintf(&b, "%v\n", v)
				}
				return engine.Output{Text: b.String()}, nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}

	cold, coldStore := openCacheDir(t, dir, "v1")
	coldRep, err := engine.Run(build(), engine.Options{Workers: 3, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if err := coldRep.Err(); err != nil {
		t.Fatal(err)
	}
	coldStore.Close()
	if runs != 3 {
		t.Fatalf("cold computed %d shards, want 3", runs)
	}

	warm, warmStore := openCacheDir(t, dir, "v1")
	defer warmStore.Close()
	// 3 shard entries + 1 merged entry.
	if n := warmStore.Metrics().Entries; n != 4 {
		t.Fatalf("warm store holds %d entries, want 4", n)
	}
	warmRep, err := engine.Run(build(), engine.Options{Workers: 3, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("warm run recomputed shards: %d", runs)
	}
	if !warmRep.Results[0].Cached {
		t.Fatal("warm sharded job must report cached")
	}
	if warmRep.Results[0].Text != coldRep.Results[0].Text {
		t.Fatalf("warm text diverged:\n%q\nvs\n%q", warmRep.Results[0].Text, coldRep.Results[0].Text)
	}
}

// BenchmarkStoreReload times opening a populated cache dir — the
// startup cost a warm process pays before its first replay.
func BenchmarkStoreReload(b *testing.B) {
	dir := b.TempDir()
	var mu sync.Mutex
	runs := 0
	cache, s := openCacheDir(b, dir, "bench")
	if _, err := engine.Run(countingRegistry(b, 64, &runs, &mu), engine.Options{Workers: 4, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Metrics().Entries == 0 {
			b.Fatal("reload found nothing")
		}
		s.Close()
	}
}

// The corruption shapes a plane.jsonl meets in the wild, shared by the
// corruption test and the load fuzzer's seed corpus.

// garbageFile is a plane.jsonl holding nothing loadable.
const garbageFile = "\x00\xff not json at all\n{half"

// truncateTail cuts the last third off b, mid-line — what a process
// killed while appending (or a full disk) leaves behind.
func truncateTail(b []byte) []byte { return b[:len(b)-len(b)/3] }

// interleaveGarbage splices malformed lines in after b's first line.
func interleaveGarbage(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var out []string
	for i, l := range lines {
		out = append(out, l)
		if i == 0 {
			out = append(out, `{"key":`, "** binary junk **")
		}
	}
	return []byte(strings.Join(out, "\n") + "\n")
}

// FuzzStoreLoad feeds arbitrary bytes in as plane.jsonl: Open must
// never fail or panic on them, and a Put made after Open must survive
// Close and a reopen — damage costs at most the damaged entries.
func FuzzStoreLoad(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		s.Put(WireKey("v1", key), entryBytes(f, engine.CacheVersionTag("v1"), key, "text", int64(i)))
	}
	s.Close()
	good, err := os.ReadFile(filepath.Join(dir, planeFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(truncateTail(good))
	f.Add([]byte(garbageFile))
	f.Add(interleaveGarbage(good))
	f.Add(append(append([]byte(nil), good...), `{"key":"b","data":{"x"`...))

	put := entryBytes(f, engine.CacheVersionTag("v1"), "fresh", "after-open", 1)
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, planeFile), file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("open over arbitrary bytes: %v", err)
		}
		s.Put("fresh", put)
		// The file may already hold an equivalent "fresh" entry, which
		// then wins; either way the reopened store must hold these bytes.
		want, _, _ := s.Get("fresh")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if got, _, ok := s2.Get("fresh"); !ok || string(got) != string(want) {
			t.Fatalf("Put after Open lost on reopen: ok=%v got=%q want=%q", ok, got, want)
		}
	})
}
