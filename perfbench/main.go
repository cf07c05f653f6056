// Command perfbench is the repository's benchmark. It drives the
// light-weight group service only through its public entry points and
// runs one of three workloads, each loading a different part of the
// stack:
//
//	rt-stream  live 4-node loopback UDP cluster, 8 LWGs sharing one HWG,
//	           1 KiB messages: an open loop at a fixed rate, then an
//	           ack-clocked closed loop (data path: core batching, vsync
//	           ordering and stability, codec, rtnet I/O)
//	rt-churn   the same cluster with 32 overlapping 3-member LWGs: leave
//	           and rejoin, symmetric partition, heal, under a light
//	           trickle of traffic (control path: naming, membership,
//	           flush, mapping reconciliation, merge-views)
//	enum-n3g2  bounded model checking of scope n3g2 to depth 6 (sim
//	           engine, protocol logic over netsim, explore engine)
//
// BENCHMARK.json names rt-stream and enum-n3g2 only: the service fails
// rt-churn's delivery-agreement check (README.md, "Known failure"), and
// rt-churn is kept, checks unchanged, as the reproducer.
//
// Usage:
//
//	perfbench --workload rt-stream --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and then traced (spans, CPU
// profile, registry and /debug/rtnet sampling), each for half the
// time, and reports the per-layer metrics plus the tracing overhead
// (traced minus untraced) of every end-to-end metric. The spans and the
// profile are written under .bench_build/perfbench-trace/. Every run checks
// the outputs of the service; the last line of standard output is a
// JSON object {correct, attempted, failed, metrics} whose correct is
// false when a check failed (each failure is printed as a VIOLATION
// line before it). The exit code is 0 whenever a result is printed and
// non-zero when the benchmark could not build, set up or measure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type workloadFunc func(run *runCtx, seconds float64) (*passResult, error)

var workloads = map[string]workloadFunc{
	"rt-stream": runStream,
	"rt-churn":  runChurn,
	"enum-n3g2": runEnum,
}

const outDir = ".bench_build/perfbench-trace"

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "rt-stream, rt-churn or enum-n3g2")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "measured time of the run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (rt-stream, rt-churn, enum-n3g2), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d is above the %d CPUs available; refusing to measure\n", procs, cpus)
		return 2
	}
	fmt.Printf("stamp workload=%s seed=%d seconds=%g trace=%d num_cpu=%d gomaxprocs=%d go=%s os=%s/%s transport=udp-loopback "+
		"stream_rate_msgs_per_s=%d stream_window=%d stream_payload_bytes=%d churn_rate_msgs_per_s=%d churn_payload_bytes=%d "+
		"enum_scope=%s enum_depth=%d enum_par=%d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		streamRate, streamWindow, streamPayload, churnRate, churnPayload, enumScope, enumDepth, runtime.NumCPU())

	var (
		passes  []*passResult
		metrics = make(map[string]float64)
	)
	if *trace == 0 {
		res, err := fn(&runCtx{seed: *seed, epoch: time.Now()}, *seconds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		passes = append(passes, res)
		metrics = res.e2eValues()
	} else {
		base, err := fn(&runCtx{seed: *seed, epoch: time.Now()}, *seconds/2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s untraced: %v\n", *name, err)
			return 1
		}
		run := &runCtx{seed: *seed, epoch: time.Now(), spans: &spanLog{}}
		traced, err := fn(run, *seconds/2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		passes = append(passes, base, traced)
		// The attribution reads the profile back from its file, so the
		// numbers are those anyone re-analysing the saved profile gets.
		profPath, err := saveTrace(*name, *seed, run.spans, traced.profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		names := perLayerNames()
		if *name == "rt-churn" {
			names = append(names, churnLayerNames...)
		}
		if metrics, err = layerMetrics(base, traced, profPath, names); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
	}

	var attempted, failed int64
	nviolation := 0
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
		nviolation += p.nviolation
		for _, n := range p.named {
			fmt.Printf("named %s %.6g %s\n", n.name, n.value, n.unit)
		}
		fmt.Printf("samples %d\n", p.samples)
		for _, v := range p.violations {
			fmt.Printf("VIOLATION %s\n", v)
		}
	}
	fmt.Printf("failed_frac %.6g (%d of %d operations)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: nviolation == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: make(map[string]value)}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := metrics[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, v)
			return 1
		}
		out.Metrics[k] = value{v, unitOf(k)}
		fmt.Printf("metric %s %.6g %s\n", k, v, unitOf(k))
	}
	if !out.Correct {
		fmt.Printf("output checks failed: %d violations\n", nviolation)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// layerMetrics assembles a traced run's report: the traced pass's
// per-layer metrics named in names, its CPU attribution and the tracing
// overhead.
func layerMetrics(base, traced *passResult, profPath string, names []string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, n := range names {
		out[n] = traced.layer[n]
	}
	profile, err := os.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	if err := addCPULayers(out, profile, traced.cpuPerOp); err != nil {
		return nil, fmt.Errorf("CPU attribution: %w", err)
	}
	b, t := base.e2eValues(), traced.e2eValues()
	for _, n := range e2eNames {
		out["overhead."+n] = t[n] - b[n]
	}
	return out, nil
}

// unitOf gives a metric's unit from its name.
func unitOf(name string) string {
	base := name
	if strings.HasPrefix(name, "overhead.") {
		base = strings.TrimPrefix(name, "overhead.")
	}
	if u, ok := e2eUnits[base]; ok {
		return u
	}
	switch {
	case strings.HasPrefix(name, "cpu_us_per_op."), strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "bytes_per_s"):
		return "B/s"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasPrefix(name, "cpu_share."), strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.Contains(name, "bytes_per_"):
		return "B"
	case strings.Contains(name, "_per_"):
		return "ratio"
	}
	return "count"
}

// saveTrace writes a traced run's spans and CPU profile and returns the
// profile's path.
func saveTrace(workload string, seed int64, spans *spanLog, profile []byte) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := spans.writeJSONL(base + ".spans.jsonl"); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return "", fmt.Errorf("write profile: %w", err)
	}
	return base + ".cpu.pprof", nil
}
