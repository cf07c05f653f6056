package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"plwg/internal/core"
	"plwg/internal/ids"
)

// rt-stream settings, stamped into every result.
const (
	streamNodes   = 4
	streamLWGs    = 8
	streamPayload = 1024 // bytes, as in the paper's Figure 2
	streamRate    = 2000 // msgs/s aggregate in the open phase
	streamWindow  = 8    // outstanding messages per sender in the saturate phase
	streamWarm    = 500 * time.Millisecond
	streamRound   = 10 * time.Second // one open and one saturate phase
	drainTimeout  = 10 * time.Second
	setupTimeout  = 30 * time.Second
)

func streamGroups() []ids.LWGID {
	out := make([]ids.LWGID, streamLWGs)
	for i := range out {
		out[i] = ids.LWGID(fmt.Sprintf("st%d", i))
	}
	return out
}

// setupStream boots the cluster and joins every node to every group,
// returning once each group has one full view at every member.
func setupStream(run *runCtx, sent *sentTable, kicks []chan struct{}) (*cluster, error) {
	lwgs := streamGroups()
	c, err := bootCluster(run, streamNodes, []ids.ProcessID{0}, func(r *recorder) {
		r.stream = newDeliveryCheck(r.pid, lwgs, sent)
		r.kick = kicks[int(r.pid)%len(kicks)]
	})
	if err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		for _, l := range lwgs {
			l := l
			var jerr error
			n.Do(func(ep *core.Endpoint) { jerr = ep.Join(l) })
			if jerr != nil {
				c.close()
				return nil, fmt.Errorf("join %s: %w", l, jerr)
			}
		}
	}
	all := allMembers(streamNodes)
	ok := c.waitFor(time.Now().Add(setupTimeout), 20*time.Millisecond, func() bool {
		for _, l := range lwgs {
			if full, _ := c.fullView(l, all); !full {
				return false
			}
		}
		return true
	})
	if !ok {
		c.close()
		return nil, fmt.Errorf("rt-stream: groups did not converge within %v", setupTimeout)
	}
	return c, nil
}

func allMembers(n int) ids.Members {
	ps := make([]ids.ProcessID, n)
	for i := range ps {
		ps[i] = ids.ProcessID(i)
	}
	return ids.NewMembers(ps...)
}

// streamGen sends messages into the cluster and records what it sent.
type streamGen struct {
	run  *runCtx
	c    *cluster
	sent *sentTable
	lwgs []ids.LWGID
	// late collects how late the open-loop generator issued each measured
	// message relative to its due time, in ns.
	late    []int64
	refused int64
	// cpuMarks samples the process CPU clock at every one-second slot
	// boundary of the measured open phase, with the messages sent so far.
	cpuMarks []cpuMark
}

type cpuMark struct {
	cpu  time.Duration
	sent int64
}

// send issues one message from sender to group lwg, stamped with its
// due time, and returns when Send has run on the sender's driver loop.
func (g *streamGen) send(sender ids.ProcessID, lwg, phase int, due int64) {
	k := streamKey{lwg, sender}
	h := header{due: due, sender: sender, lwg: lwg, phase: phase, seq: g.sent.next(k)}
	payload := makePayload(streamPayload, g.run.seed, h)
	g.sent.record(k, checksum(payload))
	if err := send(g.run, g.c, sender, g.lwgs[lwg], payload, h); err != nil {
		g.refused++
	}
}

// send runs Endpoint.Send on the sender's driver loop and records the
// gen.send (due time to return), driver.wait (Do call to the start of
// the function on the loop) and core.Send spans of the message.
func send(run *runCtx, c *cluster, sender ids.ProcessID, lwg ids.LWGID, payload []byte, h header) error {
	call := run.now()
	var start, end int64
	var err error
	c.nodes[sender].Do(func(ep *core.Endpoint) {
		start = run.now()
		err = ep.Send(lwg, payload)
		end = run.now()
	})
	ret := run.now()
	id := msgID(h)
	run.spans.add("gen.send", id, sender, h.due, ret)
	run.spans.add("driver.wait", id, sender, call, start)
	run.spans.add("core.Send", id, sender, start, end)
	return err
}

// openLoop sends at a fixed aggregate rate from one goroutine until
// stopAt, choosing sender and group from rng. Messages due before
// measureFrom are warm-up traffic.
func (g *streamGen) openLoop(rng *rand.Rand, measureFrom, stopAt int64) (measured int64) {
	interval := int64(time.Second) / streamRate
	t0 := g.run.now()
	nextMark := measureFrom
	measuring := stopAt > measureFrom
	for i := int64(0); ; i++ {
		due := t0 + i*interval
		if measuring && due >= nextMark {
			g.cpuMarks = append(g.cpuMarks, cpuMark{cpuTime(), measured})
			nextMark += int64(time.Second)
		}
		if due >= stopAt {
			return measured
		}
		if d := due - g.run.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sender := ids.ProcessID(rng.Intn(streamNodes))
		lwg := rng.Intn(streamLWGs)
		phase := phaseWarm
		if due >= measureFrom {
			phase = phaseOpen
			measured++
			g.late = append(g.late, g.run.now()-due)
		}
		g.send(sender, lwg, phase, due)
	}
}

// saturate runs the closed, ack-clocked loop until stopAt: a send costs
// (nodes-1) credits and every remote delivery earns the receiving node
// one, so each sender keeps about streamWindow messages in flight. It
// uses one goroutine per kick channel, each driving the senders whose
// recorders signal that channel.
func (g *streamGen) saturate(seed int64, kicks []chan struct{}, stopAt int64) {
	cost := int64(streamNodes - 1)
	for _, r := range g.c.recs {
		r.credits.Store(streamWindow * cost)
	}
	subs := make([]*streamGen, len(kicks))
	var wg sync.WaitGroup
	for gi := range kicks {
		gi := gi
		sub := &streamGen{run: g.run, c: g.c, sent: g.sent, lwgs: g.lwgs}
		subs[gi] = sub
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(gi)))
			for g.run.now() < stopAt {
				for p := gi; p < streamNodes; p += len(kicks) {
					r := g.c.recs[p]
					for r.credits.Load() >= cost {
						r.credits.Add(-cost)
						sub.send(ids.ProcessID(p), rng.Intn(streamLWGs), phaseSaturate, g.run.now())
					}
				}
				select {
				case <-kicks[gi]:
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
	}
	wg.Wait()
	for _, sub := range subs {
		g.refused += sub.refused
	}
}

// undelivered counts the messages sent so far that have not reached
// every remote member.
func (g *streamGen) undelivered() int64 {
	var missing int64
	g.sent.mu.Lock()
	counts := make(map[streamKey]uint64, len(g.sent.sums))
	for k, s := range g.sent.sums {
		counts[k] = uint64(len(s))
	}
	g.sent.mu.Unlock()
	for k, n := range counts {
		least := n
		for _, r := range g.c.recs {
			if r.pid == k.sender {
				continue
			}
			r.mu.Lock()
			least = min(least, r.stream.delivered(k))
			r.mu.Unlock()
		}
		missing += int64(n - least)
	}
	return missing
}

// streamSamples gathers a pass's samples over its rounds.
type streamSamples struct {
	lat     [3][]float64 // p50, p90 and p99 of every open-phase slot, ms
	cpu     []float64    // CPU-µs per message of every open-phase slot
	sat     []float64    // msgs/s delivered to every remote member, per saturate-phase slot
	late    []int64      // how late the generator sent each measured message, ns
	opened  int64        // measured open-phase messages
	samples int
}

var latQuantiles = [3]float64{0.50, 0.90, 0.99}

// runStream runs one rt-stream pass in rounds of about streamRound. Each
// round sets a fresh cluster up (timed, several times), runs an open
// phase and a saturate phase on it, and drains it. The shared host's
// speed drifts over tens of seconds and a cluster's timing varies from
// one boot to the next, so spreading the set-ups and both phases over
// the whole run and over several clusters keeps one slow stretch, or
// one slow cluster, from deciding a metric.
func runStream(run *runCtx, seconds float64) (*passResult, error) {
	res := newPassResult()
	kicks := make([]chan struct{}, min(runtime.NumCPU(), streamNodes))
	for i := range kicks {
		kicks[i] = make(chan struct{}, 1)
	}
	rounds := max(1, int(math.Round(seconds/streamRound.Seconds())))
	phase := time.Duration(seconds / float64(2*rounds) * float64(time.Second))
	rng := rand.New(rand.NewSource(run.seed))
	var smp streamSamples
	totals := make(map[string]int64)
	heap := startHeapSampler()
	for round := 0; round < rounds; round++ {
		var c *cluster
		var sent *sentTable
		setups, err := timeSetups(setupBudget/time.Duration(rounds), func() {
			if c != nil {
				c.close()
			}
		}, func() (err error) {
			sent = newSentTable()
			c, err = setupStream(run, sent, kicks)
			return err
		})
		if err == nil {
			res.setup = append(res.setup, setups...)
			err = runStreamRound(run, c, sent, kicks, rng, round, phase, res, &smp)
			for k, v := range c.totals() {
				totals[k] += v
			}
			c.close()
		}
		if err != nil {
			heap.stop()
			return nil, err
		}
	}
	res.heapMB = heap.stop()

	// Latency, CPU and throughput are medians over the one-second slots
	// of their phases.
	res.p50 = median(smp.lat[0])
	res.p90 = median(smp.lat[1])
	res.samples = smp.samples
	res.cpuPerOp = median(smp.cpu)
	res.opsPerSec = median(smp.sat)
	late := nsToMs(smp.late)
	res.named = []namedMetric{
		{"deliver_p50_ms", res.p50, "ms"},
		{"deliver_p90_ms", res.p90, "ms"},
		{"deliver_p99_ms", median(smp.lat[2]), "ms"},
		{"cpu_us_per_msg", res.cpuPerOp, "us"},
		{"peak_msgs_per_s", res.opsPerSec, "1/s"},
		{"gen_late_p50_ms", quantile(late, 0.5), "ms"},
		{"gen_late_p99_ms", quantile(late, 0.99), "ms"},
	}
	if run.spans != nil {
		addFailureCounters(res.layer, totals)
		res.layer["gen.late_p99_ms"] = quantile(late, 0.99)
		res.layer["rtnet.inbox_wait_p99_us"] = quantile(usFloat(run.spans.durations("driver.wait")), 0.99)
		res.layer["core.send_call_us"] = quantile(usFloat(run.spans.durations("core.Send")), 0.5)
	}
	return res, nil
}

// runStreamRound measures one round on a converged cluster: an open phase,
// a saturate phase, each after a warm-up, then a drain and the delivery
// checks. A traced pass counts and profiles the first round's open
// phase.
func runStreamRound(run *runCtx, c *cluster, sent *sentTable, kicks []chan struct{}, rng *rand.Rand,
	round int, phase time.Duration, res *passResult, smp *streamSamples) error {
	lwgs := streamGroups()
	g := &streamGen{run: run, c: c, sent: sent, lwgs: lwgs}
	var depth *depthSampler
	if run.spans != nil {
		depth = startDepthSampler(c)
	}
	traced := run.spans != nil && round == 0

	measureFrom := run.now() + int64(streamWarm)
	g.openLoop(rng, measureFrom, measureFrom)
	var w *window
	if traced {
		w = openWindow(run, c.totals)
	}
	opened := g.openLoop(rng, measureFrom, measureFrom+int64(phase))
	if w != nil {
		win := w.close()
		res.profile = win.profile
		counterLayers(res.layer, win, float64(opened))
		res.layer["go.allocs_per_op"] = ratio(win.allocs, float64(opened))
	}
	smp.opened += opened
	for i := 1; i < len(g.cpuMarks); i++ {
		a, b := g.cpuMarks[i-1], g.cpuMarks[i]
		smp.cpu = append(smp.cpu, ratio(float64((b.cpu-a.cpu).Microseconds()), float64(b.sent-a.sent)))
	}
	smp.late = append(smp.late, g.late...)

	satStart := run.now() + int64(streamWarm)
	satN := max(1, int(phase/time.Second))
	for _, r := range c.recs {
		r.mu.Lock()
		r.satStart, r.satSlots = satStart, make([]int64, satN)
		r.mu.Unlock()
	}
	g.saturate(run.seed+int64(1+round), kicks, satStart+int64(satN)*int64(time.Second))

	// Whatever is still missing at the deadline counts as failed.
	c.waitFor(time.Now().Add(drainTimeout), 20*time.Millisecond, func() bool { return g.undelivered() == 0 })
	sat := make([]float64, satN)
	var lat []timed
	for _, r := range c.recs {
		r.mu.Lock()
		for i, n := range r.satSlots {
			sat[i] += float64(n) / float64(streamNodes-1)
		}
		lat = append(lat, r.openLat...)
		res.violations = append(res.violations, r.stream.violations...)
		res.nviolation += r.stream.nviolation
		r.mu.Unlock()
	}
	smp.sat = append(smp.sat, sat...)
	for i, q := range latQuantiles {
		smp.lat[i] = append(smp.lat[i], slotQuantiles(lat, measureFrom, q)...)
	}
	smp.samples += len(lat)
	res.attempted += sent.total()
	res.failed += g.undelivered() + g.refused

	if traced {
		res.layer["vsync.hwgs"] = float64(c.hwgCount(lwgs))
		res.layer["vsync.flush_p50_ms"] = 1e3 * c.histQuantile("hwg_flush_duration", "_p50_seconds")
	}
	if depth != nil {
		dq, ring, err := depth.stop()
		if err != nil {
			return err
		}
		res.layer["rtnet.decode_queue_max"] = max(res.layer["rtnet.decode_queue_max"], float64(dq))
		res.layer["rtnet.send_ring_max"] = max(res.layer["rtnet.send_ring_max"], float64(ring))
	}
	return nil
}
