package main

import (
	"bytes"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// passResult is what one pass of a workload measured. The same shape
// serves every workload; each fills the fields its operation defines
// (README.md gives the per-workload meaning of every metric).
type passResult struct {
	setup     []float64 // seconds, one per set-up
	p50, p90  float64   // ms, the workload's timed operation
	samples   int       // latency samples behind p50/p90
	cpuPerOp  float64   // CPU-µs per operation
	opsPerSec float64
	heapMB    float64
	attempted int64
	failed    int64
	// violations are failed output checks (capped); nviolation counts
	// them all.
	violations []string
	nviolation int
	// named are the workload's metrics under the workload's own names
	// (deliver_p99_ms, join_p50_ms, ...), for the report.
	named []namedMetric
	// layer holds the per-layer metrics of a traced pass.
	layer map[string]float64
	// profile is the CPU profile of the traced pass's measured window.
	profile []byte
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func newPassResult() *passResult { return &passResult{layer: make(map[string]float64)} }

// A pass spends about setupBudget on set-ups, at least minSetups at a
// time; setup_s is the median. A set-up of a few tens of milliseconds
// thus runs some twenty times or more, and its median does not hinge on
// a few slow attempts.
const (
	setupBudget = time.Second
	minSetups   = 3
)

// timeSetups calls reset (untimed) and then setup (timed) at least
// minSetups times and until budget is spent, and returns each set-up's
// duration in seconds. setup leaves its result in place for the pass to
// use; reset releases the previous one.
func timeSetups(budget time.Duration, reset func(), setup func() error) ([]float64, error) {
	var out []float64
	for start := time.Now(); len(out) < minSetups || time.Since(start) < budget; {
		reset()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// heapSampler reads the live heap (bytes marked live by the latest GC)
// every 10 ms while a workload runs. Its median is the working set; the
// peak depends on which transient buffers a GC happened to catch and
// varies from run to run by a third.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	mb     []float64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mb = append(h.mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median live heap in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	<-h.done
	return median(h.mb)
}

// depthSampler polls /debug/rtnet on every node for the deepest decode
// queue and send ring (traced passes only).
type depthSampler struct {
	stopCh       chan struct{}
	done         chan struct{}
	decode, ring int
	err          error
}

func startDepthSampler(c *cluster) *depthSampler {
	d := &depthSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			dq, ring, err := c.pipelineDepth()
			if err != nil {
				d.err = err
				return
			}
			d.decode, d.ring = max(d.decode, dq), max(d.ring, ring)
			select {
			case <-d.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return d
}

func (d *depthSampler) stop() (decode, ring int, err error) {
	close(d.stopCh)
	<-d.done
	return d.decode, d.ring, d.err
}

// profiler holds a running CPU profile.
type profiler struct {
	buf bytes.Buffer
	ok  bool
}

func startProfile() *profiler {
	p := &profiler{}
	p.ok = pprof.StartCPUProfile(&p.buf) == nil
	return p
}

// stop ends the profile and returns it (gzipped protobuf), or nil if it
// never started.
func (p *profiler) stop() []byte {
	if !p.ok {
		return nil
	}
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// heapAllocs returns the number of heap objects allocated so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// delta returns after-before for every counter in after.
func delta(before, after map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = float64(v - before[k])
	}
	return out
}

func usFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
