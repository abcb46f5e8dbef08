package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/attack"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/par"
)

const (
	// fig8Setups is how many times a run trains the victim; setup_s is
	// their median, and the victims must be bit-identical.
	fig8Setups = 3
	// pairSeconds sizes the timed work from -seconds: one attack pair
	// took 33-35 s on the reference host (2-vCPU Xeon, go1.24), so runs
	// of up to a minute attack once.
	pairSeconds = 35
	// fig8Classes is the Fig. 8 ResNet-20 victim's class count.
	fig8Classes = 10
	// fig8Digest is the SHA-256 of both attack traces at the default
	// seed (the CLI's `dramlocker -exp fig8a` run at the small preset).
	fig8Digest = "50b4d9bbb235a227cf92f862fa8db67795a2c8fd025e88c9994fe4aac3f94677"
)

// fig8Preset is the small preset with its seed moved by the workload
// seed; seed 0 leaves the CLI's default preset unchanged.
func fig8Preset(seed uint64) experiments.Preset {
	p := experiments.Small()
	p.Seed += seed * 0x9e3779b97f4a7c15
	return p
}

// fig8Pairs is the number of timed attack pairs for a run of -seconds.
func fig8Pairs(seconds time.Duration) int {
	return max(1, int(seconds.Seconds()/pairSeconds))
}

// runFig8 is the paper's Fig. 8 experiment at the small preset: train a
// ResNet-20/10 8-bit victim, then attack it with 40 BFA iterations on an
// undefended system and 40 on a DRAM-Locker system at the ±20% corner.
// One unit is that attack pair; the timed work is fig8Pairs(-seconds)
// pairs.
func runFig8(rc *runCtx) error {
	par.SetBudget(runtime.NumCPU())
	p := fig8Preset(rc.seed)

	var (
		v         *experiments.Victim
		ref       [][]int8
		setups    []float64
		epochs    []float64
		prologues []float64
		epilogues []float64
	)
	for i := 0; i < fig8Setups; i++ {
		var beats []time.Time
		ctx := engine.WithProgress(context.Background(), func(stage string, done, total int) {
			if stage == "train" {
				beats = append(beats, time.Now())
			}
		})
		start := time.Now()
		vi, err := experiments.TrainVictimCtx(ctx, p, experiments.ArchResNet20, fig8Classes, 8, 1.0, nil)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("train victim: %w", err)
		}
		setups = append(setups, end.Sub(start).Seconds())
		trainID := rc.tr.newID()
		for j := 1; j < len(beats); j++ {
			epochs = append(epochs, float64(beats[j].Sub(beats[j-1]).Nanoseconds()))
			rc.tr.record(0, trainID, "", "nn.epoch", beats[j-1], beats[j])
		}
		rc.tr.record(trainID, 0, "", "experiments.train_victim", start, end)
		if len(beats) > 0 {
			prologues = append(prologues, float64(beats[0].Sub(start).Nanoseconds()))
			epilogues = append(epilogues, float64(end.Sub(beats[len(beats)-1]).Nanoseconds()))
		}
		snap := vi.QM.Snapshot()
		if v == nil {
			v, ref = vi, snap
			continue
		}
		rc.chk.check(slices.EqualFunc(ref, snap, slices.Equal) && vi.CleanAcc == v.CleanAcc,
			"set-up %d trained a different victim than set-up 1", i+1)
	}
	rc.m["setup_s"] = median(setups)
	rc.m["experiments.train_s"] = median(setups)
	rc.m["experiments.train_prologue_ms"] = ms(median(prologues))
	rc.m["experiments.train_epilogue_ms"] = ms(median(epilogues))
	rc.m["experiments.clean_acc"] = v.CleanAcc
	if err := rc.m.setPercentile("nn.epoch_ms_p50", epochs, 50, 1e6); err != nil {
		return err
	}

	a := &fig8Attack{rc: rc, p: p, v: v, snap: ref}
	var walls, cpus []float64
	var first []attack.Result
	runStart := time.Now()
	for len(walls) < fig8Pairs(rc.seconds) {
		c0, t0 := cpuNow(), time.Now()
		res, err := a.pair(len(walls))
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuNow()-c0)/1e9)
		if first == nil {
			first = res
			continue
		}
		rc.chk.check(digest(res) == digest(first), "attack pair %d traced a different attack than pair 1", len(walls))
	}
	timed := time.Since(runStart).Seconds()
	rc.chk.attempted += len(a.iters) // an iteration that errs aborts the run
	rc.m["wall_s"] = median(walls)
	rc.m["cpu_s"] = median(cpus)
	rc.m["ops_per_s"] = float64(len(a.iters)) / timed
	if err := errors.Join(
		rc.m.setPercentile("op_p50_ms", a.iters, 50, 1e6),
		rc.m.setPercentile("op_tail_ms", a.iters, 85, 1e6),
	); err != nil {
		return err
	}
	if rc.tr != nil {
		rc.m["trace.wall_s"] = median(walls)
		rc.m["experiments.build_system_ms"] = ms(median(a.build))
		if err := errors.Join(
			rc.m.setPercentile("attack.search_ms_p50", a.search, 50, 1e6),
			rc.m.setPercentile("nn.eval_ms_p50", a.eval, 50, 1e6),
			rc.m.setPercentile("controller.tryflip_us_p50", a.tryflip, 50, 1e3),
		); err != nil {
			return err
		}
	}
	checkFig8Claim(rc, first, v.CleanAcc)
	if rc.seed == 0 {
		got := digest(first)
		rc.chk.check(got == fig8Digest, "default-seed attack traces digest %s, want %s", got, fig8Digest)
	}
	return nil
}

// checkFig8Claim checks the paper's Fig. 8 claim at any seed: the
// undefended victim falls to near random guessing (at most twice the
// 1/classes chance level), while on the DRAM-Locker system at least 3/4
// of the flips are denied and the victim ends at least three chance
// levels above the undefended one. How far the few leaked flips pull
// the defended victim below its clean accuracy varies by seed (0.775 at
// seed 0, 0.475 at seed 16), so that is reported, not gated.
func checkFig8Claim(rc *runCtx, res []attack.Result, clean float64) {
	open, locked := res[0], res[1]
	chance := 1.0 / fig8Classes
	rc.chk.check(open.FinalAccuracy() <= 2*chance,
		"undefended accuracy %.4f after the attack, want <= %.2f (clean %.4f)", open.FinalAccuracy(), 2*chance, clean)
	rc.chk.check(locked.FinalAccuracy() >= open.FinalAccuracy()+3*chance,
		"DRAM-Locker accuracy %.4f after the attack, want >= undefended %.4f + %.2f (clean %.4f)",
		locked.FinalAccuracy(), open.FinalAccuracy(), 3*chance, clean)
	iters := len(locked.Records)
	rc.chk.check(4*locked.TotalDenied >= 3*iters,
		"DRAM-Locker denied %d of %d flips, want >= 3/4", locked.TotalDenied, iters)
}

// digest hashes attack traces (records and totals) for equality checks.
func digest(res []attack.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// fig8Attack runs attack pairs against one trained victim and collects
// per-iteration timings.
type fig8Attack struct {
	rc   *runCtx
	p    experiments.Preset
	v    *experiments.Victim
	snap [][]int8

	iters                 []float64 // one BFA iteration, Stop poll to Stop poll (ns)
	build                 []float64 // BuildSystem calls (ns)
	search, tryflip, eval []float64 // traced runs only (ns)
}

// pair attacks the undefended and then the DRAM-Locker system, each from
// the clean victim, and returns both traces. Unit u only labels spans.
func (a *fig8Attack) pair(u int) ([]attack.Result, error) {
	cfg := attack.DefaultBFAConfig()
	cfg.Iterations = a.p.AttackIters
	cfg.CandidatesPerIter = a.p.Candidates
	var out []attack.Result
	for _, sys := range []struct {
		name    string
		protect bool
		leak    float64
	}{{"open", false, 0}, {"locked", true, experiments.Fig8Leak}} {
		a.v.QM.Restore(a.snap)
		runID := a.rc.tr.newID()
		t0 := time.Now()
		ds, err := experiments.BuildSystem(a.p, a.v, sys.protect, sys.leak)
		if err != nil {
			return nil, fmt.Errorf("build %s system: %w", sys.name, err)
		}
		t1 := time.Now()
		a.build = append(a.build, float64(t1.Sub(t0).Nanoseconds()))
		a.rc.tr.record(0, runID, "", "experiments.build_system", t0, t1)

		var polls []time.Time
		cfg.Stop = func() error { polls = append(polls, time.Now()); return nil }
		var exec attack.FlipExecutor = ds.Exec
		var flips *tracedFlips
		if a.rc.tr != nil {
			flips = &tracedFlips{inner: ds.Exec}
			exec = flips
		}
		s, err := attack.NewSearcher(a.v.QM, cfg)
		if err != nil {
			return nil, err
		}
		res, err := s.Run(a.v.AttackBatch, a.v.Eval, exec)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("attack %s system: %w", sys.name, err)
		}
		polls = append(polls, end)
		for i := 0; i+1 < len(polls); i++ {
			a.iters = append(a.iters, float64(polls[i+1].Sub(polls[i]).Nanoseconds()))
		}
		a.rc.chk.check(len(res.Records) == cfg.Iterations, "%s attack ran %d of %d iterations", sys.name, len(res.Records), cfg.Iterations)
		if flips != nil {
			a.traceIterations(u, sys.name, runID, polls, flips)
		}
		a.rc.tr.record(runID, 0, "", "attack.run", t0, end)
		if u == 0 {
			a.count(sys.name, res, ds)
		}
		out = append(out, res)
	}
	a.v.QM.Restore(a.snap)
	return out, nil
}

// traceIterations splits each iteration at the executor's TryFlip entry
// and exit: search (gradient pass, scoring, trial forwards), the DRAM
// model's flip attempt, and evaluation (BatchLoss and nn.Evaluate).
func (a *fig8Attack) traceIterations(u int, sys string, runID int64, polls []time.Time, f *tracedFlips) {
	for i := range f.enter {
		group := fmt.Sprintf("u%d/%s/iter%d", u, sys, i+1)
		it := a.rc.tr.newID()
		a.rc.tr.record(0, it, group, "attack.search", polls[i], f.enter[i])
		a.rc.tr.record(0, it, group, "controller.tryflip", f.enter[i], f.exit[i])
		a.rc.tr.record(0, it, group, "nn.eval", f.exit[i], polls[i+1])
		a.rc.tr.record(it, runID, group, "attack.iteration", polls[i], polls[i+1])
		a.search = append(a.search, float64(f.enter[i].Sub(polls[i]).Nanoseconds()))
		a.tryflip = append(a.tryflip, float64(f.exit[i].Sub(f.enter[i]).Nanoseconds()))
		a.eval = append(a.eval, float64(polls[i+1].Sub(f.exit[i]).Nanoseconds()))
	}
}

// count records the exact design counters of one attacked system.
func (a *fig8Attack) count(sys string, res attack.Result, ds *experiments.DefendedSystem) {
	m := a.rc.m
	st := ds.Sys.Controller().Stats()
	pre := "attack." + sys + "."
	m[pre+"iters"] = float64(len(res.Records))
	m[pre+"flips_landed"] = float64(res.TotalFlips)
	m[pre+"denied"] = float64(res.TotalDenied)
	m[pre+"landed_frac"] = float64(res.TotalFlips) / float64(len(res.Records))
	m[pre+"final_acc"] = res.FinalAccuracy()
	pre = "controller." + sys + "."
	m[pre+"denied"] = float64(st.Denied)
	m[pre+"swaps"] = float64(st.Swaps)
	m[pre+"row_hits"] = float64(st.RowHits)
	m[pre+"row_misses"] = float64(st.RowMisses)
	m[pre+"sim_latency_ns"] = float64(st.TotalLatency) / 1e3 // picoseconds
	m["rowhammer."+sys+".flips"] = float64(ds.Sys.Hammer().History().TotalFlips)
	if sys == "locked" {
		m["experiments.locked_rows"] = float64(ds.LockedRows)
	}
}

// tracedFlips wraps the DRAM executor to timestamp each TryFlip: the
// memmap -> controller -> locktable/rowclone -> rowhammer path.
type tracedFlips struct {
	inner       attack.FlipExecutor
	enter, exit []time.Time
}

func (f *tracedFlips) TryFlip(globalW, k int) (attack.FlipOutcome, error) {
	f.enter = append(f.enter, time.Now())
	out, err := f.inner.TryFlip(globalW, k)
	f.exit = append(f.exit, time.Now())
	return out, err
}
