package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
)

// metricDef declares one reported metric; Better is "lower" or "higher".
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
// Host-time metrics are medians over like units of one run (an attack
// pair, a grid round, a set-up) or totals over the timed region.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // median of the run's repeated set-ups
	{"wall_s", "s", "lower"},       // median wall time of one unit
	{"cpu_s", "s", "lower"},        // median process user+sys time of one unit
	{"peak_rss_mb", "MB", "lower"}, // the process's peak resident set
	{"ok_frac", "ratio", "higher"}, // 1 - failed/attempted (ops and output checks)
	{"op_p50_ms", "ms", "lower"},   // one BFA iteration / one queued task
	{"op_tail_ms", "ms", "lower"},  // p85 (fig8-small) or p99 (fleet-grid) of the same
	{"ops_per_s", "1/s", "higher"}, // ops completed / timed wall
}

// httpRoutes are the broker and plane routes the traced fleet-grid run
// times from a handler wrapper.
var httpRoutes = []string{"submitbatch", "job", "poll", "done", "renew", "get", "put", "claim"}

// gridExps are the model-free experiments of the fleet-grid load.
var gridExps = []string{"fig1b", "mc", "table1", "fig7a", "fig7b", "defense"}

// spanLayers are the layers whose summed span self time a traced run
// reports as <layer>.self_s.
var spanLayers = []string{"experiments", "nn", "attack", "controller", "engine", "remote", "resultplane"}

// perLayer are the metrics a traced run prints, on every workload. A
// layer a workload does not reach reads 0 there (README.md lists which).
// Better says which way is good for the layer; per-layer metrics have
// no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	lo := func(name, unit string) { d = append(d, metricDef{name, unit, "lower"}) }
	hi := func(name, unit string) { d = append(d, metricDef{name, unit, "higher"}) }

	lo("trace.wall_s", "s")
	lo("trace.spans", "count")
	// fig8-small: set-up.
	lo("experiments.train_s", "s")
	lo("experiments.train_prologue_ms", "ms")
	lo("experiments.train_epilogue_ms", "ms")
	lo("nn.epoch_ms_p50", "ms")
	// fig8-small: attack iterations.
	lo("experiments.build_system_ms", "ms")
	lo("attack.search_ms_p50", "ms")
	lo("nn.eval_ms_p50", "ms")
	lo("controller.tryflip_us_p50", "us")
	hi("experiments.clean_acc", "fraction")
	lo("experiments.locked_rows", "count")
	for _, sys := range []string{"open", "locked"} {
		hi("attack."+sys+".iters", "count")
		lo("attack."+sys+".flips_landed", "count")
		hi("attack."+sys+".denied", "count")
		lo("attack."+sys+".landed_frac", "ratio")
		hi("attack."+sys+".final_acc", "fraction")
		hi("controller."+sys+".denied", "count")
		lo("controller."+sys+".swaps", "count")
		hi("controller."+sys+".row_hits", "count")
		lo("controller."+sys+".row_misses", "count")
		lo("controller."+sys+".sim_latency_ns", "ns")
		lo("rowhammer."+sys+".flips", "count")
	}
	// fleet-grid: scheduler, worker and service path.
	hi("engine.rounds", "count")
	lo("engine.task_busy_s", "s")
	lo("engine.worker_idle_s", "s")
	lo("engine.local_exec_ms_p50", "ms")
	lo("remote.worker_exec_ms_p50", "ms")
	lo("remote.queue_wait_ms_p50", "ms")
	for _, exp := range gridExps {
		lo("engine.job_ms_p50."+exp, "ms")
	}
	for _, r := range httpRoutes {
		lo("remote.http_calls_per_task."+r, "ratio")
		lo("remote.http_ms_p50."+r, "ms")
	}
	for _, c := range []string{"submitted", "completed", "plane_hits"} {
		hi("queue."+c+"_per_round", "count")
	}
	for _, c := range []string{"requeues", "duplicates", "rejected", "rate_limited"} {
		lo("queue."+c+"_per_round", "count")
	}
	hi("queue.plane_hit_frac", "ratio")
	lo("queue.journal_appends_per_task", "ratio")
	lo("queue.journal_fsyncs_per_task", "ratio")
	for _, c := range []string{"hits", "wait_hits"} {
		hi("resultplane."+c+"_per_round", "count")
	}
	for _, c := range []string{"misses", "puts", "dup_puts", "conflicts", "claims_granted", "claims_denied"} {
		lo("resultplane."+c+"_per_round", "count")
	}
	lo("resultplane.bytes_per_entry", "bytes")
	for _, l := range spanLayers {
		lo(l+".self_s", "s")
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks a metric list against the naming rules: each name
// starts with a letter or digit, is at most 64 of [A-Za-z0-9_.-] and is
// used once; each unit is at most 16 of [A-Za-z0-9_/%.-].
func validateDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q breaks the naming rules", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %q: unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses when fewer than minBeyond samples lie beyond it: such a
// tail is one or two outliers, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample (mean of the middle two for even counts);
// it is used for the few-sample unit medians, where no tail is claimed.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sink collects a run's metric values by name.
type sink map[string]float64

// emit renders the metrics of defs: every declared name appears, a
// layer the workload never reached reading 0. A value set under an
// undeclared name is a benchmark bug and fails the run.
func (m sink) emit(defs []metricDef) (map[string]any, error) {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.Name] = map[string]any{"value": m[d.Name], "unit": d.Unit}
	}
	for name := range m {
		if !isDeclared(name) {
			return nil, fmt.Errorf("metric %q is set but not declared", name)
		}
	}
	return out, nil
}

// setPercentile stores the p-th percentile of xs, samples in
// nanoseconds, under name in units of unitNS nanoseconds.
func (m sink) setPercentile(name string, xs []float64, p, unitNS float64) error {
	v, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m[name] = v / unitNS
	return nil
}

// isDeclared reports whether name is in either metric list.
func isDeclared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// ms and secs convert durations in nanoseconds to the reported units.
func ms(ns float64) float64   { return ns / 1e6 }
func secs(ns float64) float64 { return ns / 1e9 }
