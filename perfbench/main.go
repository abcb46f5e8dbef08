// Command perfbench is the repository's benchmark. It runs one workload
// in this process, checks the program's outputs, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see endToEnd); with
// -trace 1 the run records spans around its calls into each layer,
// writes them to .bench_build/trace/ and prints the per-layer metrics
// (see perLayer). Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload fig8-small --seed 0 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// deadline bounds a run, which must end within 180 s.
const deadline = 170 * time.Second

// runCtx carries one run's inputs and collectors to a workload.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	root    string  // checkout root; all files live under root/.bench_build
	tr      *tracer // nil: untraced
	m       sink
	chk     *checker
}

// scratchDir is where a run may write (journal, trace files).
func (rc *runCtx) scratchDir() string { return filepath.Join(rc.root, ".bench_build") }

// checker counts output checks; a failed check fails the run.
type checker struct {
	attempted, failed int
	msgs              []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runCtx) error{
	"fig8-small": runFig8,
	"fleet-grid": runFleet,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: fig8-small or fleet-grid")
	seed := flag.Uint64("seed", 0, "workload seed (0 is the default seed)")
	seconds := flag.Int("seconds", 20, "sizes the timed work: about this many seconds on the reference host")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	root := flag.String("root", ".", "checkout root")
	flag.Parse()

	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload fig8-small|fleet-grid, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *workload, deadline)
		os.Exit(3)
	})

	rc := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		root: *root, m: sink{}, chk: &checker{}}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	if err := runWorkload(rc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rc.m["peak_rss_mb"] = peakRSSMB()
	rc.m["ok_frac"] = 1 - float64(rc.chk.failed)/float64(rc.chk.attempted)

	defs := endToEnd
	if rc.tr != nil {
		defs = perLayer
		reportTrace(rc.m, rc.tr)
		path := filepath.Join(rc.scratchDir(), "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := rc.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	metrics, err := rc.m.emit(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, msg := range rc.chk.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rc.chk.failed == 0,
		"attempted": rc.chk.attempted,
		"failed":    rc.chk.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if rc.chk.failed > 0 {
		return 1
	}
	return 0
}

// cpuNow is the process's user+sys CPU time so far, in nanoseconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB,
// falling back to the Go runtime's view of mapped memory.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
