package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"plwg/internal/check"
	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/rtnet"
)

// cluster is a live loopback UDP cluster of rtnet nodes, each with its
// own metrics registry (as separate processes would have) and a
// recorder as its application.
type cluster struct {
	nodes []*rtnet.Node
	recs  []*recorder
	regs  []*metrics.Registry
	debug []http.Handler
	// changed is signalled (without blocking) on every view upcall.
	changed chan struct{}
}

// recorder is one node's application: it keeps the current view of
// every group with its install time, and feeds deliveries to the
// workload's checks. Upcalls run on the node's driver loop; the mutex
// orders them against readers on the benchmark's goroutines.
type recorder struct {
	pid     ids.ProcessID
	run     *runCtx
	changed chan struct{}

	mu    sync.Mutex
	views map[ids.LWGID]installed
	// stream, when set, checks every delivery (rt-stream).
	stream *deliveryCheck
	// logs, when set, keeps per-group View/Data logs for
	// check.Agreement (rt-churn).
	logs map[ids.LWGID][]check.Record
	// openLat collects the due time and due-to-delivery latency of
	// measured open-phase messages from remote senders, in ns.
	openLat []timed
	// satStart and satSlots count remote saturate-phase deliveries per
	// one-second slot of the measured window (ns since epoch).
	satStart int64
	satSlots []int64

	// credits is the node's ack clock in the saturate phase: each
	// remote delivery earns one, each send costs (nodes-1).
	credits atomic.Int64
	kick    chan struct{}
}

type installed struct {
	view ids.View
	at   int64 // ns since epoch
}

func (r *recorder) View(lwg ids.LWGID, v ids.View) {
	at := r.run.now()
	r.mu.Lock()
	r.views[lwg] = installed{v.Clone(), at}
	if r.logs != nil {
		r.logs[lwg] = append(r.logs[lwg], check.Install(v.ID))
	}
	r.mu.Unlock()
	select {
	case r.changed <- struct{}{}:
	default:
	}
}

func (r *recorder) Data(lwg ids.LWGID, src ids.ProcessID, data []byte) {
	at := r.run.now()
	h, _ := parseHeader(data)
	r.mu.Lock()
	if r.stream != nil {
		r.stream.deliver(lwg, src, data, r.views[lwg].view)
	}
	if r.logs != nil {
		r.logs[lwg] = append(r.logs[lwg], check.Deliver(src, h.key()))
	}
	if src != r.pid {
		switch h.phase {
		case phaseOpen:
			r.openLat = append(r.openLat, timed{h.due, at - h.due})
		case phaseSaturate:
			if i := (at - r.satStart) / int64(time.Second); at >= r.satStart && i < int64(len(r.satSlots)) {
				r.satSlots[i]++
			}
		}
	}
	r.mu.Unlock()
	if src != r.pid {
		r.credits.Add(1)
		select {
		case r.kick <- struct{}{}:
		default:
		}
		r.run.spans.add("deliver", msgID(h), r.pid, h.due, at)
	}
}

// msgID is the id the spans of one message share.
func msgID(h header) uint64 {
	return uint64(h.sender)<<56 | uint64(h.lwg)<<40 | h.seq
}

func (r *recorder) view(lwg ids.LWGID) (installed, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.views[lwg]
	return v, ok
}

func (r *recorder) forget(lwg ids.LWGID) {
	r.mu.Lock()
	delete(r.views, lwg)
	r.mu.Unlock()
}

// bootCluster starts n nodes on loopback and waits for nothing; the
// workload joins its groups.
func bootCluster(run *runCtx, n int, servers []ids.ProcessID, setup func(*recorder)) (*cluster, error) {
	c := &cluster{changed: make(chan struct{}, 1)}
	for i := 0; i < n; i++ {
		pid := ids.ProcessID(i)
		rec := &recorder{pid: pid, run: run, changed: c.changed, views: make(map[ids.LWGID]installed), kick: make(chan struct{}, 1)}
		if setup != nil {
			setup(rec)
		}
		reg := metrics.NewRegistry()
		node, err := rtnet.Listen(rtnet.NodeConfig{
			PID:         pid,
			Listen:      "127.0.0.1:0",
			NameServers: servers,
			Upcalls:     rec,
			Metrics:     reg,
			Seed:        run.seed*1009 + int64(i),
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
		c.recs = append(c.recs, rec)
		c.regs = append(c.regs, reg)
		c.debug = append(c.debug, node.DebugHandler())
	}
	peers := make(map[ids.ProcessID]string, n)
	for i, node := range c.nodes {
		peers[ids.ProcessID(i)] = node.Addr().String()
	}
	for i, node := range c.nodes {
		if err := node.SetPeers(peers); err != nil {
			c.close()
			return nil, err
		}
		if err := node.Start(); err != nil {
			c.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
	}
	return c, nil
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// totals sums every counter family over the nodes' registries.
func (c *cluster) totals() map[string]int64 {
	out := make(map[string]int64)
	for _, r := range c.regs {
		for k, v := range r.Totals() {
			out[k] += v
		}
	}
	return out
}

// histQuantile reads a histogram quantile (e.g. "_p50_seconds") from
// the nodes' registries: the count-weighted mean over nodes.
func (c *cluster) histQuantile(name, suffix string) float64 {
	var sum, n float64
	for _, r := range c.regs {
		var cnt, q float64
		for _, s := range r.Snapshot() {
			switch s.Name {
			case name + "_count":
				cnt += s.Value
			case name + suffix:
				q = s.Value
			}
		}
		sum += cnt * q
		n += cnt
	}
	return ratio(sum, n)
}

// pipelineDepth samples every node's /debug/rtnet and returns the
// largest total decode-queue and send-ring depth seen on one node.
func (c *cluster) pipelineDepth() (decode, ring int, err error) {
	for _, h := range c.debug {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/rtnet", nil))
		var st rtnet.PipelineStats
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			return 0, 0, fmt.Errorf("decode /debug/rtnet: %w", err)
		}
		d := 0
		for _, q := range st.DecodeQueueLens {
			d += q
		}
		decode = max(decode, d)
		ring = max(ring, st.SendRingLen)
	}
	return decode, ring, nil
}

// waitFor blocks until cond holds, re-checking on every view upcall and
// at least every poll interval. It returns false at the deadline.
func (c *cluster) waitFor(deadline time.Time, poll time.Duration, cond func() bool) bool {
	t := time.NewTimer(poll)
	defer t.Stop()
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-c.changed:
		case <-t.C:
			t.Reset(poll)
		}
	}
}

// fullView reports whether every member of the group has installed a
// view whose membership is exactly members, all with the same view id,
// and returns the latest install time.
func (c *cluster) fullView(lwg ids.LWGID, members ids.Members) (bool, int64) {
	var last int64
	var id ids.ViewID
	for i, p := range members {
		v, ok := c.recs[p].view(lwg)
		if !ok || !v.view.Members.Equal(members) {
			return false, 0
		}
		if i == 0 {
			id = v.view.ID
		} else if v.view.ID != id {
			return false, 0
		}
		last = max(last, v.at)
	}
	return true, last
}

// mappings returns, per node, the HWG each of the groups is mapped onto
// there (Endpoint.Mapping, read on the node's driver loop).
func (c *cluster) mappings(lwgs []ids.LWGID) []map[ids.LWGID]ids.HWGID {
	out := make([]map[ids.LWGID]ids.HWGID, len(c.nodes))
	for i, n := range c.nodes {
		m := make(map[ids.LWGID]ids.HWGID, len(lwgs))
		n.Do(func(ep *core.Endpoint) {
			for _, l := range lwgs {
				if h, ok := ep.Mapping(l); ok {
					m[l] = h
				}
			}
		})
		out[i] = m
	}
	return out
}

// upcalls counts the records in every recorder's logs (rt-churn).
func (c *cluster) upcalls() int {
	n := 0
	for _, r := range c.recs {
		r.mu.Lock()
		for _, log := range r.logs {
			n += len(log)
		}
		r.mu.Unlock()
	}
	return n
}

// hwgCount counts the distinct HWGs the groups are mapped onto.
func (c *cluster) hwgCount(lwgs []ids.LWGID) int {
	seen := make(map[ids.HWGID]bool)
	for _, m := range c.mappings(lwgs) {
		for _, h := range m {
			seen[h] = true
		}
	}
	return len(seen)
}
