package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/queue"
)

// testRegistry builds seed-dependent jobs — monoliths plus one sharded
// grid — so report text fingerprints where and how tasks executed.
func testRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	must := func(j engine.Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("mono%d", i)
		must(engine.Job{Name: name, Key: name + "@hash", Run: func(ctx engine.Context) (engine.Output, error) {
			rng := rand.New(rand.NewSource(int64(ctx.Seed)))
			return engine.Output{
				Text: fmt.Sprintf("%s -> %d", ctx.Name, rng.Int63()),
				Data: map[string]uint64{"seed": ctx.Seed},
			}, nil
		}})
	}
	var shards []engine.Shard
	for i := 0; i < 6; i++ {
		shards = append(shards, engine.Shard{
			Name: fmt.Sprintf("s%d", i),
			Run: func(ctx engine.Context) (engine.Output, error) {
				return engine.Output{Data: map[string]any{"name": ctx.Name, "seed": ctx.Seed}}, nil
			},
		})
	}
	must(engine.ShardedJob("grid", "grid job", "grid@hash", shards,
		func(_ engine.Context, outs []engine.Output) (engine.Output, error) {
			var b strings.Builder
			for _, o := range outs {
				var row struct {
					Name string `json:"name"`
					Seed uint64 `json:"seed"`
				}
				if err := engine.DecodeData(o.Data, &row); err != nil {
					return engine.Output{}, err
				}
				fmt.Fprintf(&b, "%s:%d\n", row.Name, row.Seed)
			}
			return engine.Output{Text: b.String()}, nil
		}))
	return reg
}

// reportText strips timings so reports can be compared for determinism.
func reportText(rep *engine.Report) string {
	var b strings.Builder
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "%s seed=%d err=%q\n%s\n", r.Name, r.Seed, r.Err, r.Text)
	}
	return b.String()
}

// statusServer answers GET /v1/status with a fixed WorkerStatus.
func statusServer(t *testing.T, st api.WorkerStatus) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(st)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDialQueueRejects: DialQueue fails at startup — naming the
// reason — against anything it could not submit to: an unreachable
// address, a daemon from another protocol revision, a daemon that is
// not a broker, and a draining broker.
func TestDialQueueRejects(t *testing.T) {
	draining, ts := startBroker(t, queue.Config{})
	draining.Drain()
	for _, tc := range []struct {
		name, addr, want string
	}{
		{"unreachable", "127.0.0.1:1", "broker http://127.0.0.1:1"},
		{"foreign proto", statusServer(t, api.WorkerStatus{Proto: "dlexec999", Name: "future", Role: "broker"}).URL, "protocol version"},
		{"result plane", statusServer(t, api.WorkerStatus{Proto: api.Version, Name: "rp", Role: "result-plane"}).URL, `role "result-plane"`},
		{"draining", ts.URL, "draining"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DialQueue(context.Background(), tc.addr, QueueOptions{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("dial %s: %v, want an error containing %q", tc.addr, err, tc.want)
			}
		})
	}
}

// TestWorkerRefusesForeignCacheKey: a pull worker whose registry
// derived a different cache key (different presets or code) refuses
// the task and abandons its lease; the broker requeues it after the
// lease expires and an honest worker serves it, so the report matches
// local and the foreign worker's output never reaches it.
func TestWorkerRefusesForeignCacheKey(t *testing.T) {
	foreign := engine.NewRegistry()
	if err := foreign.Register(engine.Job{Name: "mono0", Key: "mono0@OTHERHASH", Run: func(engine.Context) (engine.Output, error) {
		return engine.Output{Text: "poisoned"}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	bs, ts := startBroker(t, queue.Config{LeaseTTL: 50 * time.Millisecond})
	startPullWorker(t, ts.URL, foreign, "foreign", 1)

	type outcome struct {
		rep *engine.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		qe := dialQueue(t, ts.URL, QueueOptions{})
		rep, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5, Executor: qe, Filter: []string{"mono0"}})
		done <- outcome{rep, err}
	}()

	// The foreign worker leases the task, refuses it (key_mismatch) and
	// abandons the lease; only then does an honest worker join.
	deadline := time.Now().Add(10 * time.Second)
	for bs.Broker().Stats().Requeues == 0 {
		if time.Now().After(deadline) {
			t.Fatal("broker never requeued the abandoned lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	startPullWorker(t, ts.URL, testRegistry(t), "honest", 1)

	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if err := got.rep.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(reportText(got.rep), "poisoned") {
		t.Fatal("foreign worker's result leaked into the report")
	}
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5, Filter: []string{"mono0"}})
	if err != nil {
		t.Fatal(err)
	}
	if reportText(got.rep) != reportText(local) {
		t.Fatalf("key-mismatch recovery diverged from local:\n%s\nvs\n%s", reportText(got.rep), reportText(local))
	}
}

// submitRecorder wraps a broker server and records the job ids its
// batch-submit replies hand out.
type submitRecorder struct {
	h   http.Handler
	mu  sync.Mutex
	ids []string
}

func (s *submitRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != SubmitBatchPath {
		s.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, r)
	var rep api.SubmitBatchReply
	if json.Unmarshal(rec.Body.Bytes(), &rep) == nil {
		s.mu.Lock()
		for _, j := range rep.Jobs {
			if j.ID != "" {
				s.ids = append(s.ids, j.ID)
			}
		}
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// TestCancellationAbortsRemoteCalls: cancelling the scheduler context
// while every task is running on a pull worker fails the in-flight
// tasks fast, and the executor cancels their jobs at the broker so the
// abandoned work leaves the queue.
func TestCancellationAbortsRemoteCalls(t *testing.T) {
	reg := engine.NewRegistry()
	release := make(chan struct{})
	started := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		if err := reg.Register(engine.Job{Name: fmt.Sprintf("block%d", i), Run: func(c engine.Context) (engine.Output, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-c.Ctx.Done():
				return engine.Output{}, c.Canceled()
			}
			return engine.Output{Text: "done"}, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	b := queue.New(queue.Config{})
	rec := &submitRecorder{h: NewBrokerServer(b, "qb")}
	ts := httptest.NewServer(rec)
	t.Cleanup(ts.Close)
	startPullWorker(t, ts.URL, reg, "w", 3)
	t.Cleanup(func() { close(release) })
	qe := dialQueue(t, ts.URL, QueueOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for i := 0; i < 3; i++ {
			<-started
		}
		cancel()
	}()
	rep, err := engine.Run(reg, engine.Options{Workers: 3, Executor: qe, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 3 {
		t.Fatalf("failed = %d, want 3 (cancellation must fail in-flight remote tasks)", rep.Failed())
	}
	rec.mu.Lock()
	ids := append([]string(nil), rec.ids...)
	rec.mu.Unlock()
	if len(ids) != 3 {
		t.Fatalf("broker handed out %d job ids, want 3: %v", len(ids), ids)
	}
	// A job whose submit reply raced the cancellation is canceled by a
	// background reaper, so allow the last cancel a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			st, err := b.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == api.JobCanceled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s is %s, want canceled", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestPerWorkerInflightLimit: a pull worker never runs more than its
// Capacity tasks at once, even when the scheduler offers more
// parallelism through the broker.
func TestPerWorkerInflightLimit(t *testing.T) {
	const limit = 2
	var mu sync.Mutex
	cur, peak := 0, 0
	reg := engine.NewRegistry()
	for i := 0; i < 8; i++ {
		if err := reg.Register(engine.Job{Name: fmt.Sprintf("slow%d", i), Run: func(engine.Context) (engine.Output, error) {
			mu.Lock()
			if cur++; cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			return engine.Output{Text: "ok"}, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := startBroker(t, queue.Config{})
	startPullWorker(t, ts.URL, reg, "w", limit)
	rep, err := engine.Run(reg, engine.Options{Workers: 8, Executor: dialQueue(t, ts.URL, QueueOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > limit {
		t.Fatalf("peak inflight %d exceeds capacity %d", peak, limit)
	}
}

// TestServerStatus: the broker's /v1/status reports its identity,
// protocol, registered workers, retained jobs and completed tasks.
func TestServerStatus(t *testing.T) {
	bs, ts := startBroker(t, queue.Config{})
	startPullWorker(t, ts.URL, testRegistry(t), "pw", 2)
	qe := dialQueue(t, ts.URL, QueueOptions{})
	rep, err := engine.Run(testRegistry(t), engine.Options{Workers: 2, Filter: []string{"mono*"}, Executor: qe})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	st, err := qe.statusOf(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	want := bs.Broker().Stats()
	if st.Name != "qb" || st.Role != "broker" || st.Capacity != 1 || st.Jobs != want.Jobs || st.Completed != 4 {
		t.Fatalf("status %+v (broker stats %+v)", st, want)
	}
}

// TestServerRejectsMalformedAndForeignSpecs covers the broker's HTTP
// error paths for submissions: a body that is not JSON and a task
// stamped with a foreign protocol are both typed bad requests.
func TestServerRejectsMalformedAndForeignSpecs(t *testing.T) {
	_, ts := startBroker(t, queue.Config{})
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+SubmitPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("{garbage"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submission: %s", resp.Status)
	}
	if resp := post(`{"proto":"` + api.Version + `","tasks":[{"proto":"old","job":"mono0","shard":-1}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign task proto: %s", resp.Status)
	}
}
