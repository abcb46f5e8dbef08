// Package remote moves the engine's Executor seam across process
// boundaries, speaking protocol dlexec2 (internal/api) over HTTP through
// a job-queue broker: a BrokerServer fronts an internal/queue broker
// (submit/poll/cancel plus the worker lease API), PullWorker attaches a
// registry to a broker and pulls leases, and QueueExecutor submits the
// scheduler's tasks through the broker. A Follower keeps a hot standby
// broker replicating the primary's journal.
//
// The wire contract is internal/api: a task ships as (job name, shard
// index, seed, cache-key stem) — never code — and the executing worker
// re-resolves the closures from its own registry, refusing tasks whose
// cache key it cannot reproduce. Because the scheduler keeps ordering,
// merging, seeding and caching local (see internal/engine), a report
// produced through the broker is byte-identical to a local run.
//
// Failures travel as typed api.Error JSON bodies: a stable code plus a
// Retryable flag. Clients never guess from HTTP status codes — a
// non-retryable error fails the task immediately, a retryable one is
// backed off and retried (a refusing worker abandons its lease and the
// broker requeues the task for another).
//
// Brokers and result planes answer GET /v1/status (StatusPath) with an
// api.WorkerStatus; the broker routes are listed below.
package remote

import (
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/queue"
)

// Queue (broker) HTTP routes. The submit side is a scheduler's API, the
// worker side is the pull-dispatch lease API; both speak typed api
// messages with api.Error bodies on failure.
const (
	StatusPath      = "/v1/status"      // GET -> api.WorkerStatus (proto, role, drain state)
	SubmitPath      = "/v2/submit"      // POST api.JobSubmit -> api.SubmitReply
	SubmitBatchPath = "/v2/submitbatch" // POST api.JobSubmitBatch -> api.SubmitBatchReply
	JobStatusPath   = "/v2/job"         // GET ?id=...[&wait=seconds] -> api.JobStatus
	CancelPath      = "/v2/cancel"      // POST api.CancelRequest -> {}
	HelloPath       = "/v2/hello"       // POST api.WorkerHello -> api.HelloReply
	HeartbeatPath   = "/v2/heartbeat"   // POST api.Heartbeat -> {}
	DrainPath       = "/v2/drain"       // POST api.DrainRequest -> {}
	PollPath        = "/v2/poll"        // POST api.PollRequest -> api.PollReply (long poll)
	RenewPath       = "/v2/renew"       // POST api.LeaseRenew -> api.RenewReply
	DonePath        = "/v2/done"        // POST api.TaskDone -> api.DoneReply
	MetricsPath     = "/v2/metrics"     // GET [?format=prometheus] -> api.BrokerMetrics
	FleetPath       = "/v2/fleet"       // GET -> api.FleetStatus
	ReplicatePath   = "/v2/replicate"   // POST api.ReplicateRequest -> api.ReplicateReply (long poll)
	PromotePath     = "/v2/promote"     // POST api.PromoteRequest -> api.PromoteReply
	FencePath       = "/v2/fence"       // POST api.FenceRequest -> api.FenceReply
)

// ProtoVersion re-exports the wire protocol revision (api.Version) so
// daemons and CLIs can log it without importing the api package.
const ProtoVersion = api.Version

// maxStatusWait bounds the job-status long poll so a stuck client
// cannot park a handler forever; clients simply re-issue the wait.
const maxStatusWait = 30 * time.Second

// maxReplicateWait bounds the replication long poll the same way.
const maxReplicateWait = 30 * time.Second

// drainingRetryAfter is the backoff floor stamped on draining refusals:
// clients with another broker to try fail over instead of hammering a
// broker that is on its way out.
const drainingRetryAfter = time.Second

// BrokerServer fronts an internal/queue.Broker over HTTP: schedulers
// submit jobs and wait on them, workers register and pull leases. The
// broker holds no registry and executes nothing — cache-key safety is
// enforced by the workers (each refuses tasks its own registry cannot
// reproduce) and re-checked by the submitting scheduler on the result
// echo, so a broker cannot poison anyone's cache even in principle.
//
// GET /v1/status answers with role "broker" ("standby" or "fenced" for
// a follower or a fenced ex-primary), so operators and DialQueue can
// probe protocol compatibility, leadership and drain state the same way
// as on a result plane.
type BrokerServer struct {
	name     string
	b        *queue.Broker
	draining atomic.Bool
	mux      *http.ServeMux
	// planeMetrics, when set, merges a co-hosted result plane's counters
	// into /v2/metrics so one scrape covers the whole daemon.
	planeMetrics func() api.PlaneMetrics
	// promote, when set, handles /v2/promote instead of calling the
	// broker directly — the daemon wires the Follower's Promote here so
	// an HTTP promotion also stops the follow loop and starts fencing.
	promote func(reason string) (api.PromoteReply, error)
	// haToken, when set, gates /v2/promote and /v2/fence: both are
	// durable cluster-wide role flips, so a bare network path to the
	// port must not be enough to trigger them.
	haToken string
}

// NewBrokerServer wraps b in the HTTP service, named name in statuses.
func NewBrokerServer(b *queue.Broker, name string) *BrokerServer {
	s := &BrokerServer{name: name, b: b, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST "+SubmitPath, s.handleSubmit)
	s.mux.HandleFunc("POST "+SubmitBatchPath, s.handleSubmitBatch)
	s.mux.HandleFunc("GET "+JobStatusPath, s.handleJobStatus)
	s.mux.HandleFunc("POST "+CancelPath, s.handleCancel)
	s.mux.HandleFunc("POST "+HelloPath, s.handleHello)
	s.mux.HandleFunc("POST "+HeartbeatPath, s.handleHeartbeat)
	s.mux.HandleFunc("POST "+DrainPath, s.handleDrain)
	s.mux.HandleFunc("POST "+PollPath, s.handlePoll)
	s.mux.HandleFunc("POST "+RenewPath, s.handleRenew)
	s.mux.HandleFunc("POST "+DonePath, s.handleDone)
	s.mux.HandleFunc("GET "+StatusPath, s.handleStatus)
	s.mux.HandleFunc("GET "+MetricsPath, s.handleMetrics)
	s.mux.HandleFunc("GET "+FleetPath, s.handleFleet)
	s.mux.HandleFunc("POST "+ReplicatePath, s.handleReplicate)
	s.mux.HandleFunc("POST "+PromotePath, s.handlePromote)
	s.mux.HandleFunc("POST "+FencePath, s.handleFence)
	return s
}

// SetPromote installs the promotion hook (call before serving); without
// one, /v2/promote calls the broker directly.
func (s *BrokerServer) SetPromote(f func(reason string) (api.PromoteReply, error)) { s.promote = f }

// SetPlaneMetrics registers a co-hosted result plane's metrics source
// (call before serving).
func (s *BrokerServer) SetPlaneMetrics(f func() api.PlaneMetrics) { s.planeMetrics = f }

// SetHAToken requires the shared secret on promote and fence requests
// (call before serving). Empty disables the check — acceptable only
// when the broker port is reachable by broker peers alone.
func (s *BrokerServer) SetHAToken(token string) { s.haToken = token }

// checkHAToken vets a promote/fence request's shared secret, answering
// a mismatch with a typed non-retryable error. Constant-time compare so
// the token cannot be guessed byte by byte.
func (s *BrokerServer) checkHAToken(w http.ResponseWriter, token string) bool {
	if s.haToken == "" {
		return true
	}
	if subtle.ConstantTimeCompare([]byte(s.haToken), []byte(token)) != 1 {
		writeError(w, api.Errf(api.CodeBadRequest,
			"broker %s requires a matching -ha-token for promote/fence", s.name))
		return false
	}
	return true
}

// ServeHTTP implements http.Handler.
func (s *BrokerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Broker exposes the wrapped queue (stats, direct driving in tests).
func (s *BrokerServer) Broker() *queue.Broker { return s.b }

// Drain refuses new submissions and registrations; queued and leased
// work keeps flowing so the backlog empties.
func (s *BrokerServer) Drain() { s.draining.Store(true) }

// decodeInto parses the request body into msg, answering malformed
// bodies with a typed bad_request.
func decodeInto(w http.ResponseWriter, r *http.Request, msg any) bool {
	if err := json.NewDecoder(r.Body).Decode(msg); err != nil {
		writeError(w, api.Errf(api.CodeBadRequest, "bad message: %v", err))
		return false
	}
	return true
}

// reply writes a 200 JSON body.
func reply(w http.ResponseWriter, msg any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(msg)
}

// drainingErr builds the draining refusal with its Retry-After floor.
func (s *BrokerServer) drainingErr() *api.Error {
	ae := api.Errf(api.CodeDraining, "broker %s is draining", s.name)
	ae.RetryAfterNS = int64(drainingRetryAfter)
	return ae
}

func (s *BrokerServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, s.drainingErr())
		return
	}
	var sub api.JobSubmit
	if !decodeInto(w, r, &sub) {
		return
	}
	rep, err := s.b.Submit(sub)
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, rep)
}

func (s *BrokerServer) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, s.drainingErr())
		return
	}
	var bt api.JobSubmitBatch
	if !decodeInto(w, r, &bt) {
		return
	}
	rep, err := s.b.SubmitBatch(bt)
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, rep)
}

func (s *BrokerServer) handleFleet(w http.ResponseWriter, r *http.Request) {
	reply(w, s.b.Fleet())
}

func (s *BrokerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.b.Metrics()
	if s.planeMetrics != nil {
		pm := s.planeMetrics()
		m.Plane = &pm
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, m)
		return
	}
	reply(w, m)
}

func (s *BrokerServer) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	wait := time.Duration(0)
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v + "s")
		if err != nil {
			writeError(w, api.Errf(api.CodeBadRequest, "bad wait %q: %v", v, err))
			return
		}
		wait = min(d, maxStatusWait)
	}
	st, err := s.b.WaitStatus(r.Context(), id, wait)
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, st)
}

func (s *BrokerServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req api.CancelRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := s.b.Cancel(req); err != nil {
		writeError(w, err)
		return
	}
	reply(w, struct{}{})
}

func (s *BrokerServer) handleHello(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, s.drainingErr())
		return
	}
	var h api.WorkerHello
	if !decodeInto(w, r, &h) {
		return
	}
	rep, err := s.b.Hello(h)
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, rep)
}

func (s *BrokerServer) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb api.Heartbeat
	if !decodeInto(w, r, &hb) {
		return
	}
	if err := s.b.Heartbeat(hb); err != nil {
		writeError(w, err)
		return
	}
	reply(w, struct{}{})
}

func (s *BrokerServer) handleDrain(w http.ResponseWriter, r *http.Request) {
	var d api.DrainRequest
	if !decodeInto(w, r, &d) {
		return
	}
	if err := s.b.Drain(d); err != nil {
		writeError(w, err)
		return
	}
	reply(w, struct{}{})
}

func (s *BrokerServer) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req api.PollRequest
	if !decodeInto(w, r, &req) {
		return
	}
	rep, err := s.b.Poll(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, rep)
}

func (s *BrokerServer) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req api.LeaseRenew
	if !decodeInto(w, r, &req) {
		return
	}
	rep, err := s.b.Renew(req)
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, rep)
}

func (s *BrokerServer) handleDone(w http.ResponseWriter, r *http.Request) {
	var req api.TaskDone
	if !decodeInto(w, r, &req) {
		return
	}
	rep, err := s.b.Done(req)
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, rep)
}

func (s *BrokerServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.b.Stats()
	// Role "broker" (a mutation-accepting primary) is the historical
	// value clients key off; a follower shows as "standby" and a fenced
	// ex-primary as "fenced", so DialQueue can prefer the leader.
	role := "broker"
	switch s.b.Role() {
	case queue.RoleFollower:
		role = "standby"
	case queue.RoleFenced:
		role = "fenced"
	}
	reply(w, api.WorkerStatus{
		Proto:     api.Version,
		Name:      s.name,
		Role:      role,
		Draining:  s.draining.Load(),
		Capacity:  st.Workers,
		Inflight:  st.Leased,
		Jobs:      st.Jobs,
		Completed: uint64(st.Completed),
	})
}

func (s *BrokerServer) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req api.ReplicateRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := api.CheckProto(req.Proto); err != nil {
		writeError(w, err)
		return
	}
	jl := s.b.Journal()
	if jl == nil {
		writeError(w, api.Errf(api.CodeUnavailable,
			"broker %s has no journal; nothing to replicate", s.name))
		return
	}
	wait := min(time.Duration(req.WaitNS), maxReplicateWait)
	ck := jl.WaitStream(r.Context(), req.Generation, req.Segment, req.Offset, req.MaxBytes, wait)
	role := "primary"
	switch s.b.Role() {
	case queue.RoleFollower:
		role = "follower"
	case queue.RoleFenced:
		role = "fenced"
	}
	reply(w, api.ReplicateReply{
		Proto: api.Version, Data: ck.Data,
		Generation: ck.Gen, Segment: ck.Seg, Offset: ck.Off,
		Restart:        ck.Restart,
		PrimarySegment: ck.PrimarySeg, PrimaryOffset: ck.PrimaryOff,
		Epoch: s.b.Epoch(), Role: role,
	})
}

func (s *BrokerServer) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req api.PromoteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := api.CheckProto(req.Proto); err != nil {
		writeError(w, err)
		return
	}
	if !s.checkHAToken(w, req.Token) {
		return
	}
	if s.promote != nil {
		rep, err := s.promote("operator request (/v2/promote)")
		if err != nil {
			writeError(w, err)
			return
		}
		reply(w, rep)
		return
	}
	epoch, requeued, err := s.b.Promote()
	if err != nil {
		writeError(w, err)
		return
	}
	reply(w, api.PromoteReply{
		Proto: api.Version, Epoch: epoch, Requeued: requeued, Role: "primary",
	})
}

func (s *BrokerServer) handleFence(w http.ResponseWriter, r *http.Request) {
	var req api.FenceRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := api.CheckProto(req.Proto); err != nil {
		writeError(w, err)
		return
	}
	if !s.checkHAToken(w, req.Token) {
		return
	}
	if err := s.b.Fence(req.Epoch, req.Primary); err != nil {
		writeError(w, err)
		return
	}
	role := "fenced"
	if s.b.Role() == queue.RoleFollower {
		role = "follower"
	}
	reply(w, api.FenceReply{Proto: api.Version, Epoch: s.b.Epoch(), Role: role})
}
