package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestMetricNamesFollowTheRules(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateDefs(defs); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []metricDef{
		{"_lead", "s", "lower"},
		{"has space", "s", ""},
		{"slash/name", "s", ""},
		{strings.Repeat("x", 65), "s", ""},
		{"ok", "unit with space", ""},
		{"ok", strings.Repeat("u", 17), ""},
	} {
		if err := validateDefs([]metricDef{bad}); err == nil {
			t.Errorf("validateDefs accepted %+v", bad)
		}
	}
	if err := validateDefs([]metricDef{{"a", "s", ""}, {"a", "ms", ""}}); err == nil {
		t.Error("validateDefs accepted a duplicate name")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("%q is both an end-to-end and a per-layer metric", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestMetricCountsWithinLimits(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower"}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// TestBenchmarkJSONMatchesCode keeps the declared metrics and workloads
// in BENCHMARK.json identical to what the program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var e2e, pl []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		pl = append(pl, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, code declares %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer) {
		want, _ := json.Marshal(perLayer)
		t.Errorf("BENCHMARK.json per_layer differs from the code's list:\n%s", want)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %d", names, len(workloads))
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{19, 50, 0},  // rank 10, 9 beyond
		{20, 50, 10}, // rank 10, 10 beyond
		{66, 85, 0},  // rank 57, 9 beyond
		{80, 85, 68}, // rank 68, 12 beyond: fig8-small's 80 iterations
		{999, 99, 0}, // rank 990, 9 beyond
		{1000, 99, 990},
		{0, 50, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "attack.iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "attack.search", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "nn.eval", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "nn.eval", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "controller.tryflip", Start: 15, End: 20},
		{ID: 6, Name: "remote.http.poll", Start: 200, End: 230}, // a root without children
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (50 + 10), // children cover [10,60] and [90,100]
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
		6: 30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	byLayer := layerSelf(spans)
	wantLayer := map[string]int64{"attack": 40 + 25, "nn": 60, "controller": 5, "remote": 30}
	if !reflect.DeepEqual(byLayer, wantLayer) {
		t.Errorf("layerSelf = %v, want %v", byLayer, wantLayer)
	}
}

func TestEmitListsEveryDeclaredMetric(t *testing.T) {
	m := sink{"setup_s": 1.5}
	out, err := m.emit(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(endToEnd) {
		t.Errorf("emitted %d metrics, want %d", len(out), len(endToEnd))
	}
	if got := out["setup_s"].(map[string]any)["value"]; got != 1.5 {
		t.Errorf("setup_s = %v", got)
	}
	if _, err := (sink{"no.such_metric": 1}).emit(endToEnd); err == nil {
		t.Error("emit accepted an undeclared metric")
	}
}

func TestTracerIsNoOpWhenNil(t *testing.T) {
	var tr *tracer
	if id := tr.newID(); id != 0 {
		t.Errorf("nil tracer handed out id %d", id)
	}
	if err := tr.write(t.TempDir() + "/x.jsonl"); err != nil {
		t.Error(err)
	}
	if spans := tr.snapshot(); spans != nil {
		t.Errorf("nil tracer recorded %v", spans)
	}
}
