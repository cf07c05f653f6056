package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"plwg/internal/check"
	"plwg/internal/explore"
	"plwg/internal/metrics"
)

// enum-n3g2 settings and the exact outcome of the sweep: the enumerator
// is deterministic, so any other count is a wrong result.
const (
	enumScope   = "n3g2"
	enumDepth   = 6
	enumVisited = 11544
	enumPruned  = 28656
	enumRuns    = 40200
	// enumSetupDepth is the depth of the sweep that times set-up: the
	// engine built and warmed on the first two levels of the scope.
	enumSetupDepth = 2
	// enumSetupBudget is the time given to set-ups before each sweep.
	enumSetupBudget = setupBudget / 4
)

func enumConfig(sc explore.Scope, depth int, reg *metrics.Registry, log func(string, ...any)) explore.EnumConfig {
	return explore.EnumConfig{
		Scope:     sc,
		Depth:     depth,
		Par:       runtime.NumCPU(),
		POR:       true,
		ProbeMemo: true,
		Metrics:   reg,
		Log:       log,
	}
}

// checkEnum compares a depth-6 sweep with its known outcome.
func checkEnum(r explore.EnumResult) []string {
	var out []string
	want := explore.EnumStats{Visited: enumVisited, Pruned: enumPruned, Runs: enumRuns, Deepest: enumDepth}
	if r.Stats != want {
		out = append(out, fmt.Sprintf("%s depth %d: stats %+v, want %+v", enumScope, enumDepth, r.Stats, want))
	}
	if !r.Swept {
		out = append(out, fmt.Sprintf("%s depth %d: not swept", enumScope, enumDepth))
	}
	for _, f := range r.Findings {
		out = append(out, fmt.Sprintf("%s depth %d: finding (completed=%v): %s",
			enumScope, enumDepth, f.Result.Completed, check.Summary(f.Result.Violations)))
	}
	return out
}

// runEnum runs one enum-n3g2 pass: full sweeps, each after a few timed
// set-ups, until the measured time reaches the run's length. Spreading
// the set-ups over the run keeps one slow stretch of the shared host
// from deciding setup_s.
func runEnum(run *runCtx, seconds float64) (*passResult, error) {
	res := newPassResult()
	sc, err := explore.ParseScope(enumScope)
	if err != nil {
		return nil, err
	}

	heap := startHeapSampler()
	reg := metrics.NewRegistry()
	w := openWindow(run, reg.Totals)
	var blocks []float64 // ms per progress line (one per 500 states)
	var sweepTime, sweepCPU time.Duration
	sweeps, visited := 0, 0
	// Sweeps are whole; the pass stops at the sweep that ends nearest to
	// the run's length.
	for sweeps == 0 || sweepTime.Seconds()+sweepTime.Seconds()/float64(2*sweeps) < seconds {
		setups, _ := timeSetups(enumSetupBudget, func() {}, func() error {
			explore.Enumerate(enumConfig(sc, enumSetupDepth, nil, nil))
			return nil
		})
		res.setup = append(res.setup, setups...)
		last := time.Now()
		logf := func(format string, _ ...any) {
			if strings.HasPrefix(format, "visited ") {
				now := time.Now()
				blocks = append(blocks, float64(now.Sub(last))/1e6)
				last = now
			}
		}
		t0 := run.now()
		start, cpu0 := time.Now(), cpuTime()
		r := explore.Enumerate(enumConfig(sc, enumDepth, reg, logf))
		sweepTime += time.Since(start)
		sweepCPU += cpuTime() - cpu0
		run.spans.add("enum.Enumerate", 0, -1, t0, run.now())
		sweeps++
		visited += r.Stats.Visited
		v := checkEnum(r)
		res.violations = append(res.violations, v...)
		if len(v) > 0 {
			res.failed++
		}
	}
	win := w.close()
	res.heapMB = heap.stop()
	res.nviolation = len(res.violations)
	res.attempted = int64(sweeps)
	res.p50 = quantile(blocks, 0.5)
	res.p90 = quantile(blocks, 0.9)
	res.samples = len(blocks)
	res.cpuPerOp = ratio(float64(sweepCPU.Microseconds()), float64(visited))
	res.opsPerSec = float64(visited) / sweepTime.Seconds()
	res.named = []namedMetric{
		{"enum_states_per_s", res.opsPerSec, "1/s"},
		{"sweep_s", sweepTime.Seconds() / float64(sweeps), "s"},
		{"sweeps", float64(sweeps), "count"},
	}
	if run.spans != nil {
		d := win.d
		res.profile = win.profile
		res.layer["go.allocs_per_op"] = ratio(win.allocs, float64(visited))
		res.layer["explore.runs_per_state"] = ratio(d["enum_runs_total"], d["enum_states_total"])
		res.layer["explore.memo_hit_frac"] = ratio(d["enum_memo_hits_total"]+d["enum_ride_hits_total"], d["enum_runs_total"])
		res.layer["explore.por_skipped"] = d["enum_por_skipped_total"] / float64(sweeps)
		res.layer["explore.speculation_waste_frac"] = ratio(d["enum_speculation_waste_total"], d["enum_runs_total"])
	}
	return res, nil
}
