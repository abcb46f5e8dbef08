// Package faultinject perturbs the distributed stack on purpose.
//
// The BFA lineage frames an adversary as "what breaks under
// perturbation"; this package applies the same doctrine to our own
// fleet. A fault plan — a small JSON file of rules bound to named
// fault points — is loaded by the daemons (test-only, behind
// -allow-faults) and injected at three seams:
//
//   - the client side, as an http.RoundTripper wrapper (Transport):
//     requests are dropped before sending, delayed, failed
//     synthetically, or sent-then-disconnected (the reply is lost but
//     the server acted — the nastiest distributed-systems case);
//   - the server side, as a middleware (Middleware) over the broker's
//     and the result plane's handlers: requests are dropped (the
//     connection is severed with no response), delayed or failed;
//   - the journal's write path (queue.Journal consults an Injector):
//     appends are torn mid-record (the SIGKILL wound, without the
//     SIGKILL), dropped or delayed.
//
// Fault points are dotted names: "client.poll", "server.done",
// "journal.append.submit" — the verb is the last HTTP path segment or
// journal entry kind. Rules match points by glob (path.Match), so
// "server.*" perturbs a whole side and "journal.append.done" exactly
// one record type.
//
// Determinism: the plan carries a seed, and each rule owns a private
// RNG derived from (seed, rule index). Whether a given matching event
// fires depends only on how many matching events that rule has seen —
// not on wall time or goroutine interleaving — so a single-threaded
// sequence of events replays exactly, and concurrent runs stay
// statistically stable. Chaos gates pin the plan, not the schedule.
//
// This is test tooling, not a resilience feature: daemons refuse a
// fault plan unless -allow-faults is also set, so a stray flag in a
// production unit file fails loudly instead of silently corrupting a
// fleet.
package faultinject

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind is a fault flavor.
type Kind string

const (
	// KindDrop loses the event: a client request is never sent, a
	// server request gets its connection severed with no response, a
	// journal append is silently skipped.
	KindDrop Kind = "drop"
	// KindDelay stalls the event by DelayMS before letting it proceed.
	KindDelay Kind = "delay"
	// KindError fails the event synthetically: a client request errors
	// without touching the network, a server answers 503.
	KindError Kind = "error"
	// KindDisconnect (client side) sends the request but loses the
	// reply — the server-acted-but-client-doesn't-know case. On the
	// server and journal sides it degrades to drop.
	KindDisconnect Kind = "disconnect"
	// KindTorn (journal side) writes only the first half of the record
	// — the torn-write wound a power cut or SIGKILL leaves on the
	// journal tail.
	KindTorn Kind = "torn"
)

// Rule binds one fault to a set of points. A rule fires on a matching
// event when (a) more than After matching events have been seen, (b)
// fewer than Count faults have fired (0 = unlimited), and (c) the
// rule's seeded RNG draw clears Prob (0 or 1 = always).
type Rule struct {
	// Point is a glob over fault-point names ("server.poll",
	// "client.*", "journal.append.done").
	Point string `json:"point"`
	Kind  Kind   `json:"kind"`
	// Prob is the per-event fire probability; 0 means 1 (always).
	Prob float64 `json:"prob,omitempty"`
	// Count caps how many times this rule fires; 0 = unlimited.
	Count int `json:"count,omitempty"`
	// After skips the first N matching events (lets a run warm up
	// before the faults start).
	After int `json:"after,omitempty"`
	// DelayMS is the stall for KindDelay.
	DelayMS int `json:"delay_ms,omitempty"`
}

// Plan is a parsed fault plan.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// LoadPlan reads and validates a plan file.
func LoadPlan(file string) (*Plan, error) {
	buf, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %w", err)
	}
	var p Plan
	if err := json.Unmarshal(buf, &p); err != nil {
		return nil, fmt.Errorf("faultinject: parse %s: %w", file, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faultinject: %s: %w", file, err)
	}
	return &p, nil
}

// Validate checks every rule is well-formed.
func (p *Plan) Validate() error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("plan has no rules")
	}
	for i, r := range p.Rules {
		if r.Point == "" {
			return fmt.Errorf("rule %d: empty point", i)
		}
		if _, err := path.Match(r.Point, "x"); err != nil {
			return fmt.Errorf("rule %d: bad point glob %q: %v", i, r.Point, err)
		}
		switch r.Kind {
		case KindDrop, KindDelay, KindError, KindDisconnect, KindTorn:
		default:
			return fmt.Errorf("rule %d: unknown kind %q", i, r.Kind)
		}
		if r.Kind == KindDelay && r.DelayMS <= 0 {
			return fmt.Errorf("rule %d: delay rule needs delay_ms > 0", i)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("rule %d: prob %v outside [0, 1]", i, r.Prob)
		}
	}
	return nil
}

// Action is what a fault point must do: nothing (zero value), or the
// Kind with its parameters.
type Action struct {
	Kind  Kind
	Delay time.Duration
}

// ruleState is one rule plus its private RNG and counters.
type ruleState struct {
	Rule
	rng   *rand.Rand
	seen  int // matching events observed
	fired int // faults actually injected
}

// Injector evaluates a plan at fault points. All methods are safe for
// concurrent use; a nil *Injector never fires (so call sites need no
// guards).
type Injector struct {
	mu    sync.Mutex
	rules []*ruleState
}

// New builds an Injector from a validated plan. Each rule's RNG is
// seeded from (plan seed, rule index), so rules draw independent but
// reproducible streams.
func New(p *Plan) *Injector {
	in := &Injector{}
	for i, r := range p.Rules {
		in.rules = append(in.rules, &ruleState{
			Rule: r,
			rng:  rand.New(rand.NewSource(p.Seed + int64(i)*1_000_003)),
		})
	}
	return in
}

// Eval reports whether a fault fires at the named point, and which.
// The first matching rule that fires wins; rules that match but do not
// fire still consume one "seen" event (their After/Prob state
// advances).
func (in *Injector) Eval(point string) (Action, bool) {
	if in == nil {
		return Action{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if ok, _ := path.Match(r.Point, point); !ok {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && r.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		return Action{Kind: r.Kind, Delay: time.Duration(r.DelayMS) * time.Millisecond}, true
	}
	return Action{}, false
}

// Fired snapshots how many faults each rule has injected, keyed
// "point/kind" (merged across rules sharing both). Daemons log it on
// exit so a chaos run's receipt shows which perturbations actually
// landed.
func (in *Injector) Fired() map[string]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int)
	for _, r := range in.rules {
		if r.fired > 0 {
			out[r.Point+"/"+string(r.Kind)] += r.fired
		}
	}
	return out
}

// Summary renders Fired as one sorted, log-friendly line ("-" when
// nothing fired).
func (in *Injector) Summary() string {
	fired := in.Fired()
	if len(fired) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(fired))
	for k := range fired {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, fired[k])
	}
	return strings.Join(parts, " ")
}

// PointFromPath derives the verb of a fault point from an HTTP route:
// the last path segment ("/v2/poll" -> "poll", "/v1/execute" ->
// "execute"). Client and server sides prefix it with their side name.
func PointFromPath(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		p = p[i+1:]
	}
	if p == "" {
		return "root"
	}
	return p
}

// errInjected marks synthetic transport failures so logs distinguish
// them from real ones.
type errInjected struct{ point, kind string }

func (e errInjected) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s", e.kind, e.point)
}

// Transport wraps an http.RoundTripper with client-side faults at
// points "client.<verb>". Drop fails before the request is sent;
// disconnect sends it and then loses the reply; error fails
// synthetically; delay stalls, honoring the request context.
type Transport struct {
	// Base is the wrapped transport; nil uses http.DefaultTransport.
	Base http.RoundTripper
	// Inj evaluates the plan; nil passes everything through.
	Inj *Injector
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	point := "client." + PointFromPath(req.URL.Path)
	act, ok := t.Inj.Eval(point)
	if !ok {
		return base.RoundTrip(req)
	}
	switch act.Kind {
	case KindDrop, KindError:
		// The request never reaches the wire; the caller sees a
		// transport error, exactly like a lost packet or refused
		// connection.
		return nil, errInjected{point, string(act.Kind)}
	case KindDelay:
		if err := sleepCtx(req.Context(), act.Delay); err != nil {
			return nil, err
		}
		return base.RoundTrip(req)
	case KindDisconnect:
		// The server processes the request; the reply is lost. This is
		// the case retries must be idempotent against.
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		return nil, errInjected{point, string(act.Kind)}
	default:
		return base.RoundTrip(req)
	}
}

// Middleware wraps a handler with server-side faults at points
// "server.<verb>". Drop/disconnect sever the connection with no
// response (the client sees EOF); error answers 503 (an untyped body,
// which dlexec2 clients treat as a retryable transport failure);
// delay stalls before handling.
func Middleware(h http.Handler, in *Injector) http.Handler {
	if in == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		point := "server." + PointFromPath(r.URL.Path)
		act, ok := in.Eval(point)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		switch act.Kind {
		case KindDrop, KindDisconnect:
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// No hijack support (HTTP/2, recorders): degrade to an
			// empty 503, still a retryable failure to the client.
			w.WriteHeader(http.StatusServiceUnavailable)
		case KindDelay:
			if err := sleepCtx(r.Context(), act.Delay); err != nil {
				return
			}
			h.ServeHTTP(w, r)
		case KindError:
			http.Error(w, "faultinject: injected error at "+point,
				http.StatusServiceUnavailable)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// sleepCtx pauses for d or until ctx cancels.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
