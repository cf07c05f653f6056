package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"plwg/internal/check"
	"plwg/internal/explore"
	"plwg/internal/ids"
	"plwg/internal/workload"
)

// streamFixture sends n messages from p1 to group g0 and returns the
// payloads as sent.
func streamFixture(n int) (*sentTable, [][]byte) {
	sent := newSentTable()
	var out [][]byte
	for i := 1; i <= n; i++ {
		h := header{due: int64(i), sender: 1, lwg: 0, phase: phaseOpen, seq: uint64(i)}
		p := makePayload(streamPayload, 7, h)
		sent.record(streamKey{0, 1}, checksum(p))
		out = append(out, p)
	}
	return sent, out
}

var fixtureView = ids.View{ID: ids.ViewID{Coord: 0, Seq: 1}, Members: ids.NewMembers(0, 1, 2)}

func deliverAll(c *deliveryCheck, src ids.ProcessID, view ids.View, payloads [][]byte) {
	for _, p := range payloads {
		c.deliver("g0", src, p, view)
	}
}

func TestDeliveryCheckPassesCleanStream(t *testing.T) {
	sent, ps := streamFixture(3)
	c := newDeliveryCheck(2, []ids.LWGID{"g0"}, sent)
	deliverAll(c, 1, fixtureView, ps)
	if c.nviolation != 0 {
		t.Fatalf("clean stream flagged: %v", c.violations)
	}
	if got := c.delivered(streamKey{0, 1}); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
}

// Every check must fire on a deliberately corrupted record.
func TestDeliveryCheckCatchesCorruptRecords(t *testing.T) {
	outside := ids.View{ID: fixtureView.ID, Members: ids.NewMembers(0, 2)}
	cases := []struct {
		name    string
		src     ids.ProcessID
		view    ids.View
		corrupt func([][]byte) [][]byte
		want    string
	}{
		{"duplicate", 1, fixtureView, func(ps [][]byte) [][]byte { return append(ps[:2:2], ps[1], ps[2]) }, "duplicate"},
		{"reorder", 1, fixtureView, func(ps [][]byte) [][]byte { return [][]byte{ps[0], ps[2], ps[1]} }, "FIFO"},
		{"flipped byte", 1, fixtureView, func(ps [][]byte) [][]byte { ps[1][500] ^= 1; return ps }, "checksum"},
		{"sender outside view", 1, outside, func(ps [][]byte) [][]byte { return ps }, "outside the delivering view"},
		{"wrong sender", 0, fixtureView, func(ps [][]byte) [][]byte { return ps }, "header names sender"},
		{"short payload", 1, fixtureView, func(ps [][]byte) [][]byte { return [][]byte{ps[0][:10]} }, "short payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sent, ps := streamFixture(3)
			c := newDeliveryCheck(2, []ids.LWGID{"g0"}, sent)
			deliverAll(c, tc.src, tc.view, tc.corrupt(ps))
			if !hasViolation(c.violations, tc.want) {
				t.Fatalf("want a %q violation, got %v", tc.want, c.violations)
			}
		})
	}
}

// A sender that reuses one payload buffer while the service still holds
// the earlier slices (Endpoint.Send keeps them until the batch flushes)
// delivers the last content several times; the checksum of the stream
// position catches it.
func TestDeliveryCheckCatchesReusedBuffer(t *testing.T) {
	sent := newSentTable()
	buf := make([]byte, streamPayload)
	var batch [][]byte
	for i := 1; i <= 3; i++ {
		h := header{due: int64(i), sender: 1, lwg: 0, phase: phaseOpen, seq: uint64(i)}
		copy(buf, makePayload(streamPayload, 7, h))
		sent.record(streamKey{0, 1}, checksum(buf))
		batch = append(batch, buf) // held until the flush
	}
	c := newDeliveryCheck(2, []ids.LWGID{"g0"}, sent)
	deliverAll(c, 1, fixtureView, batch)
	if !hasViolation(c.violations, "checksum") {
		t.Fatalf("buffer reuse not caught by the checksum: %v", c.violations)
	}
}

func hasViolation(vs []string, want string) bool {
	for _, v := range vs {
		if strings.Contains(v, want) {
			return true
		}
	}
	return false
}

func TestChurnAgreementCatchesLostDelivery(t *testing.T) {
	v1 := ids.ViewID{Coord: 0, Seq: 1}
	v2 := ids.ViewID{Coord: 0, Seq: 2}
	log := func(data ...string) []check.Record {
		out := []check.Record{check.Install(v1)}
		for _, d := range data {
			out = append(out, check.Deliver(0, d))
		}
		return append(out, check.Install(v2))
	}
	clean := map[ids.ProcessID][]check.Record{0: log("a", "b"), 1: log("a", "b")}
	if vs := groupAgreement("g", clean); len(vs) != 0 {
		t.Fatalf("clean logs flagged: %v", vs)
	}
	lost := map[ids.ProcessID][]check.Record{0: log("a", "b"), 1: log("a")}
	if vs := groupAgreement("g", lost); len(vs) == 0 {
		t.Fatal("lost delivery not flagged")
	}
}

func TestChurnFinalStateChecks(t *testing.T) {
	topo := workload.OverlapTopology(4, 2, 3, 1)
	maps := []map[ids.LWGID]ids.HWGID{
		{"s1": 5}, {"s1": 5, "s2": 6}, {"s1": 5, "s2": 6}, {"s2": 6},
	}
	if vs := mappingSplits(maps, topo); len(vs) != 0 {
		t.Fatalf("agreeing mappings flagged: %v", vs)
	}
	maps[2]["s2"] = 7
	if vs := mappingSplits(maps, topo); len(vs) != 1 || !strings.Contains(vs[0], "s2") {
		t.Fatalf("split mapping of s2 not flagged: %v", vs)
	}
	delete(maps[0], "s1")
	if vs := mappingSplits(maps, topo); len(vs) != 2 {
		t.Fatalf("unmapped member not flagged: %v", vs)
	}

	run := &runCtx{}
	c := &cluster{}
	full := ids.View{ID: ids.ViewID{Coord: 0, Seq: 3}, Members: ids.NewMembers(0, 1, 2)}
	for p := 0; p < 3; p++ {
		c.recs = append(c.recs, &recorder{pid: ids.ProcessID(p), run: run,
			views: map[ids.LWGID]installed{"s1": {full, int64(p)}}})
	}
	if ok, last := c.fullView("s1", full.Members); !ok || last != 2 {
		t.Fatalf("fullView = %v, %d; want true, 2", ok, last)
	}
	stale := full
	stale.ID.Seq = 2
	c.recs[1].views["s1"] = installed{stale, 1}
	if ok, _ := c.fullView("s1", full.Members); ok {
		t.Fatal("members in different views reported as one full view")
	}
}

func TestCheckEnum(t *testing.T) {
	good := explore.EnumResult{
		Stats: explore.EnumStats{Visited: enumVisited, Pruned: enumPruned, Runs: enumRuns, Deepest: enumDepth},
		Swept: true,
	}
	if vs := checkEnum(good); len(vs) != 0 {
		t.Fatalf("the known outcome flagged: %v", vs)
	}
	wrong := good
	wrong.Stats.Visited--
	notSwept := good
	notSwept.Swept = false
	finding := good
	finding.Findings = []explore.Finding{{Result: explore.Result{Completed: false}}}
	for name, r := range map[string]explore.EnumResult{"count": wrong, "swept": notSwept, "finding": finding} {
		if vs := checkEnum(r); len(vs) == 0 {
			t.Errorf("%s: corrupted outcome not flagged", name)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics a run reports, with
// the units the report gives them.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but the benchmark has no such workload", w.Name)
		}
	}
	for _, tc := range []struct {
		kind     string
		declared []metric
		reported []string
	}{{"end_to_end", doc.EndToEnd, e2eNames}, {"per_layer", doc.PerLayer, perLayerNames()}} {
		var names []string
		for _, m := range tc.declared {
			names = append(names, m.Name)
			if u := unitOf(m.Name); u != m.Unit {
				t.Errorf("%s %s: unit %q, the report says %q", tc.kind, m.Name, m.Unit, u)
			}
		}
		if strings.Join(names, " ") != strings.Join(tc.reported, " ") {
			t.Errorf("%s declares %v, a run reports %v", tc.kind, names, tc.reported)
		}
	}
}
