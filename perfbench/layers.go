package main

import "time"

// e2eNames are the end-to-end metrics, reported by every workload's
// untraced run (README.md gives their meaning in each workload).
var e2eNames = []string{"setup_s", "p50_ms", "p90_ms", "cpu_us_per_op", "ops_per_s", "heap_live_mb"}

var e2eUnits = map[string]string{
	"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms",
	"cpu_us_per_op": "us", "ops_per_s": "1/s", "heap_live_mb": "MB",
}

// e2eValues returns the pass's end-to-end metrics; setup_s is the
// median over the pass's set-ups.
func (r *passResult) e2eValues() map[string]float64 {
	return map[string]float64{
		"setup_s":       median(append([]float64(nil), r.setup...)),
		"p50_ms":        r.p50,
		"p90_ms":        r.p90,
		"cpu_us_per_op": r.cpuPerOp,
		"ops_per_s":     r.opsPerSec,
		"heap_live_mb":  r.heapMB,
	}
}

// counterLayerNames are the per-layer metrics read from the registries
// and from the spans, in report order. A workload that does not
// exercise a metric's base reports 0.
var counterLayerNames = []string{
	"gen.late_p99_ms",
	"rtnet.inbox_wait_p99_us", "rtnet.datagrams_per_msg", "rtnet.bytes_per_msg",
	"rtnet.decode_queue_max", "rtnet.send_ring_max", "rtnet.ring_overflow",
	"rtnet.malformed", "rtnet.send_errors",
	"core.send_call_us", "core.msgs_per_batch", "core.preinstall_drops",
	"vsync.sends_per_msg", "vsync.retrans_per_msg", "vsync.nacks_per_msg",
	"vsync.flush_p50_ms", "vsync.flush_aborts", "vsync.suspects", "vsync.hwgs",
	"naming.retries", "naming.failures",
	"explore.runs_per_state", "explore.memo_hit_frac", "explore.por_skipped",
	"explore.speculation_waste_frac",
	"go.allocs_per_op",
}

// churnLayerNames are the per-layer metrics of membership changes, which
// only rt-churn makes. rt-churn is not among the workloads of
// BENCHMARK.json (README.md, "Known failure"), so only its own traced
// run reports them, after the others.
var churnLayerNames = []string{
	"rtnet.ctrl_datagrams_per_join", "core.switches_per_heal", "core.merges_per_heal",
	"vsync.flush_rounds_per_heal", "naming.requests_per_join", "naming.sync_bytes_per_s",
}

// perLayerNames lists every per-layer metric a traced run of a
// benchmark workload reports.
func perLayerNames() []string {
	out := append([]string(nil), counterLayerNames...)
	for _, l := range cpuLayers {
		out = append(out, "cpu_share."+l)
	}
	for _, l := range cpuLayers {
		out = append(out, "cpu_us_per_op."+l)
	}
	out = append(out, "cpu_share.fmt", "cpu_share.gob", "cpu_share.gc")
	for _, n := range e2eNames {
		out = append(out, "overhead."+n)
	}
	return out
}

// window brackets a measured interval: wall time, process CPU, heap
// allocations, the registry counters and (traced) a CPU profile.
type window struct {
	totals  func() map[string]int64
	t0      time.Time
	cpu0    time.Duration
	allocs0 uint64
	before  map[string]int64
	prof    *profiler
}

type windowResult struct {
	secs    float64
	cpuUs   float64
	allocs  float64
	d       map[string]float64 // counter deltas
	profile []byte
}

func openWindow(run *runCtx, totals func() map[string]int64) *window {
	w := &window{totals: totals, before: totals(), allocs0: heapAllocs()}
	if run.spans != nil {
		w.prof = startProfile()
	}
	w.t0, w.cpu0 = time.Now(), cpuTime()
	return w
}

func (w *window) close() windowResult {
	r := windowResult{
		secs:  time.Since(w.t0).Seconds(),
		cpuUs: float64((cpuTime() - w.cpu0).Microseconds()),
	}
	if w.prof != nil {
		r.profile = w.prof.stop()
	}
	r.allocs = float64(heapAllocs() - w.allocs0)
	r.d = delta(w.before, w.totals())
	return r
}

// counterLayers derives the per-message counter ratios from a window's
// counter deltas; msgs is the number of messages sent in it.
func counterLayers(layer map[string]float64, w windowResult, msgs float64) {
	d := w.d
	layer["rtnet.datagrams_per_msg"] = ratio(d["rtnet_datagrams_sent_total"], msgs)
	layer["rtnet.bytes_per_msg"] = ratio(d["rtnet_bytes_sent_total"], msgs)
	layer["core.msgs_per_batch"] = ratio(d["lwg_batched_msgs_total"], d["lwg_batch_flushes_total"])
	layer["vsync.sends_per_msg"] = ratio(d["hwg_sends_total"], msgs)
	layer["vsync.retrans_per_msg"] = ratio(d["hwg_retrans_msgs_total"], msgs)
	layer["vsync.nacks_per_msg"] = ratio(d["hwg_nacks_total"], msgs)
	layer["naming.sync_bytes_per_s"] = ratio(d["ns_sync_bytes_total"], w.secs)
}

// addFailureCounters copies the counters of dropped, refused or retried
// work over a whole pass.
func addFailureCounters(layer map[string]float64, t map[string]int64) {
	layer["rtnet.ring_overflow"] = float64(t["rtnet_send_ring_overflow_total"])
	layer["rtnet.malformed"] = float64(t["rtnet_datagrams_malformed_total"])
	layer["rtnet.send_errors"] = float64(t["rtnet_send_errors_total"])
	layer["core.preinstall_drops"] = float64(t["core_preinstall_drops_total"])
	layer["vsync.flush_aborts"] = float64(t["hwg_flush_aborts_total"])
	layer["vsync.suspects"] = float64(t["hwg_suspects_total"])
	layer["naming.retries"] = float64(t["ns_client_retries_total"])
	layer["naming.failures"] = float64(t["ns_client_failures_total"])
}

// addCPULayers attributes the window's CPU profile and splits the
// pass's CPU per operation across the layers.
func addCPULayers(layer map[string]float64, profile []byte, cpuPerOp float64) error {
	a, err := attribute(profile)
	if err != nil {
		return err
	}
	if err := checkShares(a, cpuPerOp); err != nil {
		return err
	}
	for _, l := range cpuLayers {
		layer["cpu_share."+l] = a.share[l]
		layer["cpu_us_per_op."+l] = a.share[l] * cpuPerOp
	}
	layer["cpu_share.fmt"] = a.fmt
	layer["cpu_share.gob"] = a.gob
	layer["cpu_share.gc"] = a.gc
	return nil
}
