package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"plwg/internal/check"
	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/workload"
)

// rt-churn settings, stamped into every result.
const (
	churnNodes   = 4
	churnGroups  = 32
	churnSize    = 3
	churnRate    = 100 // trickle msgs/s
	churnPayload = 256
	joinTimeout  = 5 * time.Second
	splitTimeout = 10 * time.Second
	healTimeout  = 20 * time.Second
)

// The cut splits {0,1} from {2,3}; each side has one name server.
var churnServers = []ids.ProcessID{0, 3}

func churnSide(p ids.ProcessID) int { return int(p) / 2 }

func churnTopology() workload.Topology {
	return workload.OverlapTopology(churnNodes, churnGroups, churnSize, 1)
}

func setupChurn(run *runCtx, topo workload.Topology) (*cluster, error) {
	c, err := bootCluster(run, churnNodes, churnServers, func(r *recorder) {
		r.logs = make(map[ids.LWGID][]check.Record)
	})
	if err != nil {
		return nil, err
	}
	for i, n := range c.nodes {
		for _, g := range topo.GroupsOf(ids.ProcessID(i)) {
			var jerr error
			n.Do(func(ep *core.Endpoint) { jerr = ep.Join(g.Name) })
			if jerr != nil {
				c.close()
				return nil, fmt.Errorf("join %s: %w", g.Name, jerr)
			}
		}
	}
	ok := c.waitFor(time.Now().Add(setupTimeout), 20*time.Millisecond, func() bool {
		for _, g := range topo.Groups {
			if full, _ := c.fullView(g.Name, g.Members); !full {
				return false
			}
		}
		return true
	})
	if !ok {
		c.close()
		return nil, fmt.Errorf("rt-churn: groups did not converge within %v", setupTimeout)
	}
	return c, nil
}

// trickle is the background open-loop traffic of rt-churn. The churning
// node never sends: busy names it, and the lock keeps a send from
// racing its Leave.
type trickle struct {
	run  *runCtx
	c    *cluster
	topo workload.Topology

	mu   sync.RWMutex
	busy ids.ProcessID // -1 when no node is churning

	seq     map[streamKey]uint64
	sent    map[ids.ProcessID][]string // message keys per sender
	refused int64
	stopCh  chan struct{}
	done    chan struct{}
}

func (t *trickle) setBusy(p ids.ProcessID) {
	t.mu.Lock()
	t.busy = p
	t.mu.Unlock()
}

func (t *trickle) start(rng *rand.Rand) {
	t.stopCh, t.done = make(chan struct{}), make(chan struct{})
	interval := time.Second / churnRate
	go func() {
		defer close(t.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-t.stopCh:
				return
			case <-tick.C:
			}
			gi := rng.Intn(len(t.topo.Groups))
			g := t.topo.Groups[gi]
			sender := g.Members[rng.Intn(len(g.Members))]
			t.mu.RLock()
			if sender != t.busy {
				t.send(sender, gi, g.Name)
			}
			t.mu.RUnlock()
		}
	}()
}

func (t *trickle) send(sender ids.ProcessID, gi int, lwg ids.LWGID) {
	k := streamKey{gi, sender}
	t.seq[k]++
	h := header{due: t.run.now(), sender: sender, lwg: gi, phase: phaseTrickle, seq: t.seq[k]}
	payload := makePayload(churnPayload, t.run.seed, h)
	if err := send(t.run, t.c, sender, lwg, payload, h); err != nil {
		t.refused++
		return
	}
	t.sent[sender] = append(t.sent[sender], h.key())
}

func (t *trickle) stop() {
	close(t.stopCh)
	<-t.done
}

// churnOps accumulates the timed membership operations of a pass.
type churnOps struct {
	joins, leaves, splits, heals []int64 // ns
	failed                       int64
	// cycleCPU is, per cycle, the CPU-µs per leave or join of the
	// leave/rejoin phase.
	cycleCPU []float64
	// per-operation counter deltas, for the per-layer ratios
	joinDatagrams, joinRequests              float64
	healSwitches, healMerges, healFlushRound float64
}

func (o *churnOps) attempted() int64 {
	return int64(len(o.joins)+len(o.leaves)+len(o.splits)+len(o.heals)) + o.failed
}

var errDeadline = errors.New("missed its deadline")

// churner runs the rt-churn cycles against a converged cluster.
type churner struct {
	run  *runCtx
	c    *cluster
	topo workload.Topology
	tr   *trickle
	ops  churnOps
	lwgs []ids.LWGID
}

// counters returns the summed registry counters when the pass is traced
// (the per-operation ratios are per-layer metrics), nil otherwise.
func (ch *churner) counters() map[string]int64 {
	if ch.run.spans == nil {
		return nil
	}
	return ch.c.totals()
}

// rejoin has node p leave group g and join it again, timing the join
// from the Join call until every member installed the full view.
func (ch *churner) rejoin(p ids.ProcessID, g workload.GroupRef) error {
	rest := ids.NewMembers()
	for _, m := range g.Members {
		if m != p {
			rest = append(rest, m)
		}
	}
	n := ch.c.nodes[p]
	t0 := ch.run.now()
	var err error
	n.Do(func(ep *core.Endpoint) { err = ep.Leave(g.Name) })
	if err != nil {
		return fmt.Errorf("leave %s at p%d: %w", g.Name, p, err)
	}
	var left int64
	if !ch.c.waitFor(time.Now().Add(joinTimeout), 5*time.Millisecond, func() bool {
		ok, at := ch.c.fullView(g.Name, rest)
		left = at
		return ok
	}) {
		return fmt.Errorf("leave %s at p%d %w", g.Name, p, errDeadline)
	}
	ch.ops.leaves = append(ch.ops.leaves, left-t0)
	ch.run.spans.add("leave", 0, p, t0, left)
	ch.c.recs[p].forget(g.Name)

	// The node may still be finishing its own side of the leave; Join
	// reports that as ErrAlreadyMember until it is done.
	deadline := time.Now().Add(joinTimeout)
	before := ch.counters()
	for {
		call := ch.run.now()
		n.Do(func(ep *core.Endpoint) { err = ep.Join(g.Name) })
		if err == nil {
			t0 = call
			ch.run.spans.add("core.Join", 0, p, call, ch.run.now())
			break
		}
		if !errors.Is(err, core.ErrAlreadyMember) || time.Now().After(deadline) {
			return fmt.Errorf("join %s at p%d: %w", g.Name, p, err)
		}
		time.Sleep(time.Millisecond)
	}
	var joined int64
	if !ch.c.waitFor(deadline, 5*time.Millisecond, func() bool {
		ok, at := ch.c.fullView(g.Name, g.Members)
		joined = at
		return ok
	}) {
		return fmt.Errorf("join %s at p%d %w", g.Name, p, errDeadline)
	}
	ch.ops.joins = append(ch.ops.joins, joined-t0)
	ch.run.spans.add("join", 0, p, t0, joined)
	if before != nil {
		d := delta(before, ch.counters())
		ch.ops.joinDatagrams += d["rtnet_datagrams_sent_total"]
		ch.ops.joinRequests += d["ns_client_requests_total"]
	}
	return nil
}

// split cuts {0,1} from {2,3} symmetrically and times it until every
// group has installed its side's view at every member.
func (ch *churner) split() error {
	t0 := ch.run.now()
	for i, n := range ch.c.nodes {
		var other []ids.ProcessID
		for q := range ch.c.nodes {
			if churnSide(ids.ProcessID(q)) != churnSide(ids.ProcessID(i)) {
				other = append(other, ids.ProcessID(q))
			}
		}
		n.Block(other...)
	}
	var last int64
	if !ch.c.waitFor(time.Now().Add(splitTimeout), 10*time.Millisecond, func() bool {
		last = 0
		for _, g := range ch.topo.Groups {
			for _, side := range []int{0, 1} {
				var part []ids.ProcessID
				for _, m := range g.Members {
					if churnSide(m) == side {
						part = append(part, m)
					}
				}
				if len(part) == 0 {
					continue
				}
				ok, at := ch.c.fullView(g.Name, ids.NewMembers(part...))
				if !ok || at < t0 {
					return false
				}
				last = max(last, at)
			}
		}
		return true
	}) {
		return fmt.Errorf("split %w", errDeadline)
	}
	ch.ops.splits = append(ch.ops.splits, last-t0)
	ch.run.spans.add("partition", 0, -1, t0, last)
	return nil
}

// heal lifts the cut and times it until every group has one full view
// at every member and all members map it to the same HWG.
func (ch *churner) heal() error {
	before := ch.counters()
	t0 := ch.run.now()
	for _, n := range ch.c.nodes {
		n.Unblock()
	}
	var last int64
	if !ch.c.waitFor(time.Now().Add(healTimeout), 5*time.Millisecond, func() bool {
		last = 0
		for _, g := range ch.topo.Groups {
			ok, at := ch.c.fullView(g.Name, g.Members)
			if !ok || at < t0 {
				return false
			}
			last = max(last, at)
		}
		if len(mappingSplits(ch.c.mappings(ch.lwgs), ch.topo)) > 0 {
			return false
		}
		last = max(last, ch.run.now())
		return true
	}) {
		return fmt.Errorf("heal %w", errDeadline)
	}
	ch.ops.heals = append(ch.ops.heals, last-t0)
	ch.run.spans.add("heal", 0, -1, t0, last)
	if before != nil {
		d := delta(before, ch.counters())
		ch.ops.healSwitches += d["lwg_switches_total"]
		ch.ops.healMerges += d["lwg_merges_total"]
		ch.ops.healFlushRound += d["hwg_flush_rounds_total"]
	}
	return nil
}

// mappingSplits lists the groups whose members do not all report one
// HWG through Endpoint.Mapping.
func mappingSplits(maps []map[ids.LWGID]ids.HWGID, topo workload.Topology) []string {
	var out []string
	for _, g := range topo.Groups {
		hwgs := make(map[ids.HWGID]bool)
		for _, m := range g.Members {
			h, ok := maps[m][g.Name]
			if !ok {
				h = ids.NoHWG
			}
			hwgs[h] = true
		}
		if len(hwgs) != 1 || hwgs[ids.NoHWG] {
			out = append(out, fmt.Sprintf("%s: members map it to %d HWGs", g.Name, len(hwgs)))
		}
	}
	return out
}

// cycle runs one churn cycle: node p leaves and rejoins each of its
// groups in seeded order, then the cluster splits and heals.
func (ch *churner) cycle(rng *rand.Rand, p ids.ProcessID) error {
	groups := ch.topo.GroupsOf(p)
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	ch.tr.setBusy(p)
	cpu0 := cpuTime()
	for _, g := range groups {
		if err := ch.rejoin(p, g); err != nil {
			return err
		}
	}
	ch.ops.cycleCPU = append(ch.ops.cycleCPU, float64((cpuTime()-cpu0).Microseconds())/float64(2*len(groups)))
	ch.tr.setBusy(-1)
	// A seeded pause puts the cut at a different phase of the protocol
	// timers in every cycle.
	time.Sleep(time.Duration(rng.Int63n(int64(100 * time.Millisecond))))
	if err := ch.split(); err != nil {
		return err
	}
	if err := ch.heal(); err != nil {
		return err
	}
	return nil
}

// churnChecks runs the output checks on a quiet cluster: delivery
// agreement per group, final views equal to the topology and one HWG
// per group.
func churnChecks(c *cluster, topo workload.Topology, lwgs []ids.LWGID) []string {
	var out []string
	for _, g := range topo.Groups {
		if ok, _ := c.fullView(g.Name, g.Members); !ok {
			out = append(out, fmt.Sprintf("%s: final views differ from membership %v", g.Name, g.Members))
		}
	}
	out = append(out, mappingSplits(c.mappings(lwgs), topo)...)
	return append(out, agreement(c, topo)...)
}

func agreement(c *cluster, topo workload.Topology) []string {
	var out []string
	for _, g := range topo.Groups {
		logs := make(map[ids.ProcessID][]check.Record, len(g.Members))
		for _, m := range g.Members {
			r := c.recs[m]
			r.mu.Lock()
			logs[m] = append([]check.Record(nil), r.logs[g.Name]...)
			r.mu.Unlock()
		}
		out = append(out, groupAgreement(g.Name, logs)...)
	}
	return out
}

// groupAgreement runs check.Agreement over one group's logs. Every
// member is final: the checks run after the last heal, on a quiet
// cluster.
func groupAgreement(lwg ids.LWGID, logs map[ids.ProcessID][]check.Record) []string {
	var out []string
	for _, v := range check.Agreement(string(lwg), logs, func(ids.ProcessID) bool { return true }) {
		out = append(out, v.String())
	}
	return out
}

// selfMissing counts trickle messages their sender never delivered to
// itself.
func (t *trickle) selfMissing() int64 {
	var missing int64
	for p, keys := range t.sent {
		got := make(map[string]bool)
		r := t.c.recs[p]
		r.mu.Lock()
		for _, log := range r.logs {
			for _, rec := range log {
				if rec.View.IsZero() && rec.Src == p {
					got[rec.Data] = true
				}
			}
		}
		r.mu.Unlock()
		for _, k := range keys {
			if !got[k] {
				missing++
			}
		}
	}
	return missing
}

// runChurn runs one rt-churn pass.
func runChurn(run *runCtx, seconds float64) (*passResult, error) {
	res := newPassResult()
	topo := churnTopology()
	var lwgs []ids.LWGID
	for _, g := range topo.Groups {
		lwgs = append(lwgs, g.Name)
	}
	var c *cluster
	var err error
	res.setup, err = timeSetups(setupBudget, func() {
		if c != nil {
			c.close()
		}
	}, func() (err error) {
		c, err = setupChurn(run, topo)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	rng := rand.New(rand.NewSource(run.seed))
	tr := &trickle{run: run, c: c, topo: topo, busy: -1,
		seq: make(map[streamKey]uint64), sent: make(map[ids.ProcessID][]string)}
	ch := &churner{run: run, c: c, topo: topo, tr: tr, lwgs: lwgs}
	heap := startHeapSampler()
	var depth *depthSampler
	if run.spans != nil {
		depth = startDepthSampler(c)
	}
	tr.start(rand.New(rand.NewSource(run.seed + 1)))
	w := openWindow(run, c.totals)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var cycleErr error
	// Every node churns once per round of four cycles, in a seeded order:
	// join latency differs from node to node (a name server is local to
	// some), so an unbalanced draw would move the latency percentiles.
	var order []int
	for time.Now().Before(deadline) {
		if len(order) == 0 {
			order = rng.Perm(churnNodes)
		}
		p := ids.ProcessID(order[0])
		order = order[1:]
		if cycleErr = ch.cycle(rng, p); cycleErr != nil {
			ch.ops.failed++
			break
		}
	}
	win := w.close()
	tr.stop()
	// Let the last trickle messages reach everyone before checking: wait
	// until no upcall has arrived for a second.
	quietSince, last := time.Now(), -1
	c.waitFor(time.Now().Add(drainTimeout), 100*time.Millisecond, func() bool {
		if n := c.upcalls(); n != last {
			quietSince, last = time.Now(), n
		}
		return time.Since(quietSince) >= time.Second
	})
	res.heapMB = heap.stop()
	if cycleErr != nil {
		fmt.Printf("rt-churn: %v\n", cycleErr)
	}
	res.violations = churnChecks(c, topo, lwgs)
	res.nviolation = len(res.violations)

	o := &ch.ops
	nops := float64(o.attempted() - o.failed)
	// CPU is the median over cycles of the cost of their leaves and
	// joins. Throughput counts every operation, splits and heals
	// included, over the whole churn.
	joins := nsToMs(o.joins)
	res.p50 = quantile(joins, 0.5)
	res.p90 = quantile(joins, 0.9)
	res.samples = len(joins)
	res.cpuPerOp = median(o.cycleCPU)
	res.opsPerSec = nops / win.secs
	var trickled int64
	for _, keys := range tr.sent {
		trickled += int64(len(keys))
	}
	res.attempted = o.attempted() + trickled + tr.refused
	res.failed = o.failed + tr.refused + tr.selfMissing()
	res.named = []namedMetric{
		{"join_p50_ms", res.p50, "ms"},
		{"join_p99_ms", quantile(joins, 0.99), "ms"},
		{"leave_p50_ms", quantile(nsToMs(o.leaves), 0.5), "ms"},
		{"split_mean_ms", mean(nsToMs(o.splits)), "ms"},
		{"heal_mean_ms", mean(nsToMs(o.heals)), "ms"},
		{"cycles", float64(len(o.heals)), "count"},
	}
	if run.spans != nil {
		res.profile = win.profile
		counterLayers(res.layer, win, float64(trickled))
		addFailureCounters(res.layer, c.totals())
		res.layer["go.allocs_per_op"] = ratio(win.allocs, nops)
		res.layer["vsync.hwgs"] = float64(c.hwgCount(lwgs))
		res.layer["vsync.flush_p50_ms"] = 1e3 * c.histQuantile("hwg_flush_duration", "_p50_seconds")
		nj, nh := float64(len(o.joins)), float64(len(o.heals))
		res.layer["rtnet.ctrl_datagrams_per_join"] = ratio(o.joinDatagrams, nj)
		res.layer["naming.requests_per_join"] = ratio(o.joinRequests, nj)
		res.layer["core.switches_per_heal"] = ratio(o.healSwitches, nh)
		res.layer["core.merges_per_heal"] = ratio(o.healMerges, nh)
		res.layer["vsync.flush_rounds_per_heal"] = ratio(o.healFlushRound, nh)
		res.layer["rtnet.inbox_wait_p99_us"] = quantile(usFloat(run.spans.durations("driver.wait")), 0.99)
		res.layer["core.send_call_us"] = quantile(usFloat(run.spans.durations("core.Send")), 0.5)
		dq, ring, err := depth.stop()
		if err != nil {
			return nil, err
		}
		res.layer["rtnet.decode_queue_max"] = float64(dq)
		res.layer["rtnet.send_ring_max"] = float64(ring)
	}
	sort.Strings(res.violations)
	return res, nil
}
