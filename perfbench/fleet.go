package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/resultplane"
)

const (
	// fleetSetups is how many times a run brings a fleet up; setup_s is
	// their median. The last fleetSessions(-seconds) of them serve load.
	fleetSetups = 15
	// sessionRounds is how many timed rounds one fleet serves. The
	// broker sweeps every retained job and lease on each call (jobs are
	// retained for 10 minutes), so a round's cost grows with the rounds
	// before it: on one fleet the median round took 0.27 s over 35
	// rounds and 0.40 s over 105, and the run-to-run spread of 35-round
	// runs was about three times that of 12-round runs. Fresh fleets of 12 rounds keep the state, and the cost
	// per round, comparable from run to run. 12 rounds of 99 tasks also
	// back a p99 task latency with >= 10 samples beyond it.
	sessionRounds = 12
	// roundsPerSecond sizes the timed work from -seconds: a round on a
	// fresh fleet took about 0.25 s on the reference host (2-vCPU Xeon,
	// go1.24). The work is fixed for a given -seconds, so counts, memory
	// and throughput compare across runs and commits.
	roundsPerSecond = 3.5
	// repeatWindow is how many of a preset's latest fresh seeds a repeat
	// run draws from.
	repeatWindow = 8
)

// fleetPresets are the presets of the grid; a round runs each once.
var fleetPresets = []string{"tiny", "small", "paper"}

// fleetSessions is the number of fleets that serve timed rounds in a run
// of -seconds, sessionRounds rounds each.
func fleetSessions(seconds time.Duration) int {
	return max(1, int(math.Round(seconds.Seconds()*roundsPerSecond/sessionRounds)))
}

// runFleet drives the job-queue path with nothing to train: a journaled
// broker co-hosting a result plane on loopback HTTP, one plane-attached
// pull worker, and engine.Run through remote.DialQueue over the
// model-free jobs. A round (the unit) is three grid runs, one per preset
// in generator order. Two use fresh base seeds and one repeats an
// earlier base seed of its preset, which the broker answers from the
// plane without a lease. Each serving fleet runs an untimed warm-up
// round, then sessionRounds timed rounds. It is a closed loop of nproc
// callers (the scheduler's Workers) against a worker of capacity nproc.
func runFleet(rc *runCtx) error {
	ctx := context.Background()
	o := newFleetObs(rc.tr)
	nproc := runtime.NumCPU()
	rng := rand.New(rand.NewPCG(rc.seed, 0xf1ee7))
	sessions := fleetSessions(rc.seconds)
	reports := map[string]string{}

	var setups, walls, cpus, busies, idles []float64
	var timedNS float64
	var bm, pm deltas
	for i := 0; i < fleetSetups; i++ {
		t0 := time.Now()
		f, err := startFleet(ctx, rc.scratchDir(), nproc, o, reports)
		if err != nil {
			return fmt.Errorf("fleet set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i >= fleetSetups-sessions {
			err = f.serve(ctx, rc, o, rng, &walls, &cpus, &busies, &idles, &timedNS, &bm, &pm)
		}
		if cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	rc.m["setup_s"] = median(setups)
	rounds := float64(len(walls))
	timed := secs(timedNS)
	fmt.Fprintf(os.Stderr, "perfbench: fleet-grid: %d sessions, %d rounds timed in %.1f s\n", sessions, len(walls), timed)

	lat := o.taskLatencies()
	rc.m["wall_s"], rc.m["cpu_s"] = median(walls), median(cpus)
	rc.m["ops_per_s"] = float64(len(lat)) / timed
	if err := errors.Join(
		rc.m.setPercentile("op_p50_ms", lat, 50, 1e6),
		rc.m.setPercentile("op_tail_ms", lat, 99, 1e6),
	); err != nil {
		return err
	}

	// Exact accounting: the generator alone decides which tasks hit.
	perRun := tasksPerRun(o.reg, fleetPresets[0])
	submitted := bm["submitted"]
	rc.chk.check(submitted == len(lat), "broker saw %d submissions for %d executed tasks", submitted, len(lat))
	rc.chk.check(bm["plane_hits"] == perRun*len(walls),
		"broker answered %d tasks from the plane, want %d (%d repeat runs of %d tasks)",
		bm["plane_hits"], perRun*len(walls), len(walls), perRun)
	tc := time.Now()
	o.checkAgainstLocal(ctx, rc)
	fmt.Fprintf(os.Stderr, "perfbench: fleet-grid: local re-check %.1f s\n", time.Since(tc).Seconds())

	if rc.tr == nil {
		return nil
	}
	m := rc.m
	m["trace.wall_s"] = median(walls)
	m["engine.rounds"] = rounds
	m["engine.task_busy_s"], m["engine.worker_idle_s"] = median(busies), median(idles)
	errs := []error{
		m.setPercentile("engine.local_exec_ms_p50", o.localExec, 50, 1e6),
		m.setPercentile("remote.worker_exec_ms_p50", o.workerExecs(), 50, 1e6),
		m.setPercentile("remote.queue_wait_ms_p50", o.queueWaits(), 50, 1e6),
	}
	for _, exp := range gridExps {
		errs = append(errs, m.setPercentile("engine.job_ms_p50."+exp, o.jobs[exp], 50, 1e6))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, r := range httpRoutes {
		xs := o.http[r]
		m["remote.http_calls_per_task."+r] = float64(len(xs)) / float64(len(lat))
		// A route too rarely called for a median (renew, when every
		// task beats its lease) reads 0.
		_ = m.setPercentile("remote.http_ms_p50."+r, xs, 50, 1e6)
	}
	for _, name := range []string{"submitted", "completed", "plane_hits", "requeues", "duplicates", "rejected", "rate_limited"} {
		m["queue."+name+"_per_round"] = float64(bm[name]) / rounds
	}
	m["queue.plane_hit_frac"] = float64(bm["plane_hits"]) / float64(submitted)
	m["queue.journal_appends_per_task"] = float64(bm["journal_appends"]) / float64(submitted)
	m["queue.journal_fsyncs_per_task"] = float64(bm["journal_fsyncs"]) / float64(submitted)
	for _, name := range []string{"hits", "misses", "puts", "dup_puts", "conflicts", "claims_granted", "claims_denied", "wait_hits"} {
		m["resultplane."+name+"_per_round"] = float64(pm[name]) / rounds
	}
	if pm["entries"] > 0 {
		m["resultplane.bytes_per_entry"] = float64(pm["bytes_stored"]) / float64(pm["entries"])
	}
	return nil
}

// deltas accumulates counter differences over the timed rounds of every
// serving fleet.
type deltas map[string]int

// brokerCounters and planeCounters flatten the counters the per-layer
// metrics use.
func brokerCounters(m api.BrokerMetrics) map[string]int {
	c := map[string]int{
		"submitted": m.Submitted, "completed": m.Completed, "plane_hits": m.PlaneHits,
		"requeues": m.Requeues, "duplicates": m.Duplicates, "rejected": m.Rejected,
		"rate_limited": m.RateLimited,
	}
	if m.Journal != nil {
		c["journal_appends"], c["journal_fsyncs"] = m.Journal.Appends, m.Journal.Fsyncs
	}
	return c
}

func planeCounters(m api.PlaneMetrics) map[string]int {
	return map[string]int{
		"hits": int(m.Hits), "misses": int(m.Misses), "puts": int(m.Puts), "dup_puts": int(m.DupPuts),
		"conflicts": int(m.Conflicts), "claims_granted": int(m.ClaimsGranted),
		"claims_denied": int(m.ClaimsDenied), "wait_hits": int(m.WaitHits),
		"entries": int(m.Entries), "bytes_stored": int(m.BytesStored),
	}
}

// add accumulates after - before into d.
func (d *deltas) add(before, after map[string]int) {
	if *d == nil {
		*d = deltas{}
	}
	for k, v := range after {
		(*d)[k] += v - before[k]
	}
}

// serve runs the warm-up round and sessionRounds timed rounds on f,
// appending each timed round's wall, CPU, busy and idle time.
func (f *fleet) serve(ctx context.Context, rc *runCtx, o *fleetObs, rng *rand.Rand,
	walls, cpus, busies, idles *[]float64, timedNS *float64, bm, pm *deltas) error {
	g := &gridGen{rng: rng, hist: map[string][]uint64{}}
	// Warm-up round, untimed: every preset gets a fresh seed, so each
	// timed round has an earlier seed to repeat.
	for _, preset := range fleetPresets {
		if err := f.gridRun(ctx, rc, o, preset, g.fresh(preset)); err != nil {
			return err
		}
	}
	bm0, pm0 := brokerCounters(f.b.Metrics()), planeCounters(f.store.Metrics())
	o.setTiming(true)
	defer o.setTiming(false)
	start := time.Now()
	for r := 0; r < sessionRounds; r++ {
		order, rep := g.rng.Perm(len(fleetPresets)), g.rng.IntN(len(fleetPresets))
		c0, t0, busy0 := cpuNow(), time.Now(), o.busyNS()
		for j, pi := range order {
			preset := fleetPresets[pi]
			var seed uint64
			if j == rep {
				seed = g.repeat(preset)
			} else {
				seed = g.fresh(preset)
			}
			if err := f.gridRun(ctx, rc, o, preset, seed); err != nil {
				return err
			}
		}
		wall := float64(time.Since(t0).Nanoseconds())
		busy := o.busyNS() - busy0
		*walls = append(*walls, secs(wall))
		*cpus = append(*cpus, secs(cpuNow()-c0))
		*busies = append(*busies, secs(busy))
		*idles = append(*idles, secs(float64(f.workers)*wall-busy))
	}
	*timedNS += float64(time.Since(start).Nanoseconds())
	bm.add(bm0, brokerCounters(f.b.Metrics()))
	pm.add(pm0, planeCounters(f.store.Metrics()))
	return nil
}

// tasksPerRun counts the schedulable units of one preset's grid jobs.
func tasksPerRun(reg *engine.Registry, preset string) int {
	n := 0
	for _, exp := range gridExps {
		if j, ok := reg.Get(preset + "/" + exp); ok {
			n += max(1, len(j.Shards))
		}
	}
	return n
}

// gridGen draws base seeds: fresh 64-bit ones (a repeat among a run's
// few hundred draws is a 1e-15 event), and repeats of one of a preset's
// latest fresh seeds.
type gridGen struct {
	rng  *rand.Rand
	hist map[string][]uint64
}

func (g *gridGen) fresh(preset string) uint64 {
	s := g.rng.Uint64()
	g.hist[preset] = append(g.hist[preset], s)
	return s
}

func (g *gridGen) repeat(preset string) uint64 {
	h := g.hist[preset]
	return h[len(h)-1-g.rng.IntN(min(len(h), repeatWindow))]
}

// fleet is one in-process broker + plane + pull worker + queue client.
type fleet struct {
	reg        *engine.Registry
	workers    int // the scheduler's callers, and the worker's capacity
	dir        string
	jl         *queue.Journal
	store      *resultplane.Store
	b          *queue.Broker
	srv        *http.Server
	qe         *remote.QueueExecutor
	client     engine.Executor
	stopWorker context.CancelFunc
	workerDone chan error
	serveDone  chan error
	reports    map[string]string // normalised report digest by preset/seed, shared by a run's fleets
}

// startFleet brings up the registry, a journaled broker co-hosting a
// result plane behind one loopback listener, and a plane-attached pull
// worker, and returns once the worker has said hello and a queue client
// has dialled the broker.
func startFleet(ctx context.Context, scratch string, nproc int, o *fleetObs, reports map[string]string) (*fleet, error) {
	reg, err := experiments.BuildRegistry(fleetPresets)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	o.reg = reg
	f := &fleet{reg: reg, dir: dir, workers: nproc, reports: reports}
	if f.jl, err = queue.OpenJournal(filepath.Join(dir, "journal"), 0); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.store = resultplane.NewStore()
	f.b = queue.New(queue.Config{
		Journal: f.jl,
		Plane:   &resultplane.StorePlane{S: f.store, Version: experiments.CacheVersion},
	})
	bs := remote.NewBrokerServer(f.b, "bench-broker")
	bs.SetPlaneMetrics(f.store.Metrics)
	mux := http.NewServeMux()
	resultplane.NewServer(f.store, "bench-broker").Routes(mux)
	mux.Handle("/", bs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.closeStores()
		return nil, err
	}
	addr := ln.Addr().String()
	f.srv = &http.Server{Handler: o.wrapHTTP(mux)}
	f.serveDone = make(chan error, 1)
	go func() { f.serveDone <- f.srv.Serve(ln) }()

	planeClient := resultplane.NewClient("http://"+addr, experiments.CacheVersion)
	cache := engine.NewCache()
	cache.SetRemote(&resultplane.EngineCache{C: planeClient})
	local := o.wrap("engine.local_exec", engine.NewNamedLocalExecutor(reg, "bench-worker"))
	wexec := o.wrap("remote.worker_exec", &engine.CachingExecutor{Exec: local, Cache: cache})
	pw := remote.NewPullWorker(addr, reg, remote.WorkerOptions{Name: "bench-worker", Capacity: nproc, Executor: wexec})
	wctx, cancel := context.WithCancel(ctx)
	f.stopWorker, f.workerDone = cancel, make(chan error, 1)
	go func() { f.workerDone <- pw.Run(wctx) }()
	for f.b.Stats().Workers == 0 {
		select {
		case err := <-f.workerDone:
			f.workerDone <- err
			f.close()
			return nil, fmt.Errorf("pull worker: %w", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	if f.qe, err = remote.DialQueue(ctx, addr, remote.QueueOptions{}); err != nil {
		f.close()
		return nil, err
	}
	f.client = &clientExec{inner: f.qe, o: o}
	return f, nil
}

// close stops the worker, the listener and the stores, and removes the
// fleet's files.
func (f *fleet) close() error {
	f.stopWorker()
	werr := <-f.workerDone
	// Every client here shares the default transport. Its idle pool can
	// hold a connection that never sent a request, which Shutdown would
	// wait five seconds for.
	http.DefaultClient.CloseIdleConnections()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := f.srv.Shutdown(sctx)
	if err := <-f.serveDone; !errors.Is(err, http.ErrServerClosed) && serr == nil {
		serr = err
	}
	cerr := f.closeStores()
	if werr != nil && !errors.Is(werr, context.Canceled) {
		return fmt.Errorf("pull worker: %w", werr)
	}
	if serr != nil {
		return fmt.Errorf("broker listener: %w", serr)
	}
	return cerr
}

func (f *fleet) closeStores() error {
	err := errors.Join(f.jl.Close(), f.store.Close())
	return errors.Join(err, os.RemoveAll(f.dir))
}

// gridRun is one engine.Run over a preset's model-free jobs through the
// queue. A repeated preset/seed must render the identical report.
func (f *fleet) gridRun(ctx context.Context, rc *runCtx, o *fleetObs, preset string, seed uint64) error {
	filter := make([]string, len(gridExps))
	for i, exp := range gridExps {
		filter[i] = preset + "/" + exp
	}
	t0 := time.Now()
	o.runID = rc.tr.newID()
	rep, err := engine.Run(f.reg, engine.Options{
		Workers:  f.workers,
		Filter:   filter,
		BaseSeed: seed,
		Ctx:      ctx,
		Executor: f.client,
		OnDone: func(r engine.Result) {
			exp := path.Base(r.Name)
			o.mu.Lock()
			if o.timing {
				o.jobs[exp] = append(o.jobs[exp], float64(r.Duration.Nanoseconds()))
			}
			o.mu.Unlock()
		},
	})
	if err != nil {
		return fmt.Errorf("grid run %s#%x: %w", preset, seed, err)
	}
	rc.tr.record(o.runID, 0, "", "engine.run", t0, time.Now())
	rc.chk.check(rep.Err() == nil, "grid run %s#%x: %v", preset, seed, rep.Err())
	var b strings.Builder
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "=== %s ===\n%s\nERR %s\n", r.Name, r.Text, r.Err)
	}
	d := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	id := fmt.Sprintf("%s#%x", preset, seed)
	if prev, ok := f.reports[id]; ok {
		rc.chk.check(prev == d, "repeat of grid run %s rendered a different report", id)
	}
	f.reports[id] = d
	return nil
}

// fleetObs collects fleet-grid observations. Result digests are kept
// for every task; timings only during timed rounds. Client-side task
// latency is always timed; worker, executor and HTTP timings only in
// traced runs (the wrappers are not installed otherwise).
type fleetObs struct {
	tr    *tracer
	reg   *engine.Registry // of the latest fleet; every fleet's is identical
	runID int64            // span of the grid run in progress

	mu        sync.Mutex
	timing    bool               // inside timed rounds
	tasks     int                // tasks executed, warm-up included
	lat       []float64          // client Execute latency (ns)
	latByKey  map[string]float64 // the same, by cache key
	busy      float64            // sum of lat (ns)
	results   map[string]taskOut // first result per cache key
	mismatch  []string           // keys whose bytes changed between runs
	taskFails int
	spanByKey map[string]int64     // in-flight client span per cache key
	execByKey map[string]float64   // worker exec duration per cache key (ns)
	localExec []float64            // local executor compute (ns)
	http      map[string][]float64 // per route (ns)
	jobs      map[string][]float64 // per experiment: engine job duration (ns)
}

type taskOut struct {
	spec   api.TaskSpec
	digest string
}

type spanKey struct{}

func newFleetObs(tr *tracer) *fleetObs {
	return &fleetObs{
		tr: tr, results: map[string]taskOut{}, spanByKey: map[string]int64{},
		latByKey: map[string]float64{}, execByKey: map[string]float64{},
		http: map[string][]float64{}, jobs: map[string][]float64{},
	}
}

func (o *fleetObs) setTiming(on bool) {
	o.mu.Lock()
	o.timing = on
	o.mu.Unlock()
}

func (o *fleetObs) busyNS() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.busy
}

func (o *fleetObs) taskLatencies() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]float64(nil), o.lat...)
}

func (o *fleetObs) workerExecs() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	xs := make([]float64, 0, len(o.execByKey))
	for _, d := range o.execByKey {
		xs = append(xs, d)
	}
	return xs
}

// queueWaits is, per task a worker computed, the client's latency minus
// the worker's execution: submission, queueing, lease and result paths.
func (o *fleetObs) queueWaits() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	xs := make([]float64, 0, len(o.execByKey))
	for k, d := range o.execByKey {
		if c, ok := o.latByKey[k]; ok {
			xs = append(xs, c-d)
		}
	}
	return xs
}

// checkAgainstLocal recomputes every distinct task in-process and checks
// the queue delivered the same bytes, then reports tasks that failed or
// changed bytes between runs.
func (o *fleetObs) checkAgainstLocal(ctx context.Context, rc *runCtx) {
	local := engine.NewLocalExecutor(o.reg)
	o.mu.Lock()
	defer o.mu.Unlock()
	for key, r := range o.results {
		tr, err := local.Execute(ctx, r.spec)
		rc.chk.check(err == nil && resultDigest(tr) == r.digest, "task %s: queue bytes differ from the in-process result (err %v)", key, err)
	}
	rc.chk.check(len(o.mismatch) == 0, "%d cache keys returned differing bytes across runs, e.g. %v", len(o.mismatch), o.mismatch[:min(3, len(o.mismatch))])
	rc.chk.attempted += o.tasks
	rc.chk.failed += o.taskFails
	if o.taskFails > 0 {
		rc.chk.msgs = append(rc.chk.msgs, fmt.Sprintf("%d tasks failed", o.taskFails))
	}
}

func resultDigest(tr api.TaskResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00%s\x00", len(tr.Text), tr.Text)
	h.Write(tr.Data)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// clientExec is the Executor handed to engine.Run: it times each task
// from call to return and keeps its result digest.
type clientExec struct {
	inner engine.Executor
	o     *fleetObs
}

func (e *clientExec) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	o := e.o
	id := o.tr.newID()
	if o.tr != nil {
		o.mu.Lock()
		o.spanByKey[spec.CacheKey] = id
		o.mu.Unlock()
	}
	t0 := time.Now()
	tr, err := e.inner.Execute(ctx, spec)
	t1 := time.Now()
	o.tr.record(id, o.runID, spec.CacheKey, "remote.queue_execute", t0, t1)
	d := float64(t1.Sub(t0).Nanoseconds())
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.spanByKey, spec.CacheKey)
	o.tasks++
	if o.timing {
		o.lat = append(o.lat, d)
		o.latByKey[spec.CacheKey] = d
		o.busy += d
	}
	if err != nil || tr.Err != "" {
		o.taskFails++
		return tr, err
	}
	dg := resultDigest(tr)
	if prev, ok := o.results[spec.CacheKey]; !ok {
		o.results[spec.CacheKey] = taskOut{spec: spec, digest: dg}
	} else if prev.digest != dg {
		o.mismatch = append(o.mismatch, spec.CacheKey)
	}
	return tr, err
}

// wrap times an executor on the worker side under the span name; the
// untraced run gets exec back unchanged.
func (o *fleetObs) wrap(name string, exec engine.Executor) engine.Executor {
	if o.tr == nil {
		return exec
	}
	return &spanExec{inner: exec, o: o, name: name}
}

// spanExec records a span per task around a worker-side executor. Its
// parent is the enclosing spanExec's span or, at the top, the client's
// in-flight span for the same cache key.
type spanExec struct {
	inner engine.Executor
	o     *fleetObs
	name  string
}

func (e *spanExec) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	return e.ExecuteStream(ctx, spec, nil)
}

func (e *spanExec) ExecuteStream(ctx context.Context, spec api.TaskSpec, onProgress engine.ProgressFunc) (api.TaskResult, error) {
	o := e.o
	parent, ok := ctx.Value(spanKey{}).(int64)
	if !ok {
		o.mu.Lock()
		parent = o.spanByKey[spec.CacheKey]
		o.mu.Unlock()
	}
	id := o.tr.newID()
	ctx = context.WithValue(ctx, spanKey{}, id)
	t0 := time.Now()
	var tr api.TaskResult
	var err error
	if se, ok := e.inner.(engine.StreamExecutor); ok && onProgress != nil {
		tr, err = se.ExecuteStream(ctx, spec, onProgress)
	} else {
		tr, err = e.inner.Execute(ctx, spec)
	}
	t1 := time.Now()
	o.tr.record(id, parent, spec.CacheKey, e.name, t0, t1)
	d := float64(t1.Sub(t0).Nanoseconds())
	o.mu.Lock()
	switch {
	case !o.timing:
	case e.name == "remote.worker_exec":
		o.execByKey[spec.CacheKey] = d
	default:
		o.localExec = append(o.localExec, d)
	}
	o.mu.Unlock()
	return tr, err
}

// wrapHTTP times every broker and plane request by route in traced runs.
func (o *fleetObs) wrapHTTP(h http.Handler) http.Handler {
	if o.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		route, layer := path.Base(r.URL.Path), "remote"
		if strings.HasPrefix(r.URL.Path, "/v3/") {
			layer = "resultplane"
		}
		o.tr.record(0, 0, "", layer+".http."+route, t0, t1)
		o.mu.Lock()
		if o.timing {
			o.http[route] = append(o.http[route], float64(t1.Sub(t0).Nanoseconds()))
		}
		o.mu.Unlock()
	})
}
