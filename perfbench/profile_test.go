package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building known profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(field, q)
}

// knownProfile builds a CPU profile whose attribution is known: sample
// weights sum to 100 ns, and function i is named names[i-1].
func knownProfile() []byte {
	names := []string{
		"plwg/internal/core.(*Endpoint).Send",   // 1
		"plwg/internal/rtnet.(*Transport).send", // 2
		"fmt.Sprintf",                           // 3
		"runtime.mallocgc",                      // 4
		"main.(*recorder).Data",                 // 5
		"runtime.gcBgMarkWorker",                // 6
		"plwg/internal/bench.RunRTThroughput",   // 7
		"encoding/gob.(*Encoder).Encode",        // 8
	}
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, names...)
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var v pb
		v.varint(1, vt[0])
		v.varint(2, vt[1])
		p.bytes(1, v.b)
	}
	// Locations 1..8 hold function i; location 9 inlines fmt.Sprintf
	// (innermost) into core.Send.
	locs := map[uint64][]uint64{9: {3, 1}}
	for i := uint64(1); i <= 8; i++ {
		locs[i] = []uint64{i}
	}
	for id := uint64(1); id <= 9; id++ {
		var l pb
		l.varint(1, id)
		for _, fn := range locs[id] {
			var line pb
			line.varint(1, fn)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	for i := range names {
		var f pb
		f.varint(1, uint64(i+1))
		f.varint(2, uint64(5+i))
		p.bytes(5, f.b)
	}
	samples := []struct {
		locs []uint64
		ns   uint64
	}{
		{[]uint64{9}, 30},    // fmt inlined in core -> core, fmt
		{[]uint64{4, 2}, 20}, // malloc under rtnet -> rtnet
		{[]uint64{5, 1}, 10}, // upcall under core -> app
		{[]uint64{6}, 25},    // GC worker -> runtime, gc
		{[]uint64{7}, 5},     // unlisted internal package -> other
		{[]uint64{8, 2}, 10}, // gob under rtnet -> rtnet, gob
	}
	for _, s := range samples {
		var q pb
		if len(s.locs) == 1 {
			q.varint(1, s.locs[0]) // unpacked form
		} else {
			q.packed(1, s.locs...)
		}
		q.packed(2, 1, s.ns)
		p.bytes(2, q.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.b
}

func TestAttributeKnownProfile(t *testing.T) {
	a, err := attribute(knownProfile())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": .30, "rtnet": .30, "app": .10, "runtime": .25, "other": .05}
	for _, l := range cpuLayers {
		if math.Abs(a.share[l]-want[l]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, a.share[l], want[l])
		}
	}
	if a.fmt != .30 || a.gob != .10 || a.gc != .25 || a.total != 100 {
		t.Errorf("fmt %v gob %v gc %v total %d, want .30 .10 .25 100", a.fmt, a.gob, a.gc, a.total)
	}
	if err := checkShares(a, 250); err != nil {
		t.Error(err)
	}
	layer := map[string]float64{}
	if err := addCPULayers(layer, knownProfile(), 250); err != nil {
		t.Fatal(err)
	}
	if got := layer["cpu_us_per_op.core"]; math.Abs(got-75) > 1e-9 {
		t.Errorf("cpu_us_per_op.core = %v, want 75", got)
	}
}

func TestAttributeRejectsBadProfiles(t *testing.T) {
	good := knownProfile()
	for name, data := range map[string][]byte{
		"truncated": good[:len(good)-3],
		"garbage":   {0xff, 0xff, 0xff},
	} {
		if _, err := attribute(data); err == nil {
			t.Errorf("%s profile accepted", name)
		}
	}
	if err := checkShares(attribution{share: map[string]float64{"core": 1}}, 1); err == nil {
		t.Error("empty profile accepted")
	}
	if err := checkShares(attribution{share: map[string]float64{"core": .5}, total: 1}, 1); err == nil {
		t.Error("shares summing to .5 accepted")
	}
}

// A real profile from the runtime decodes and its shares sum to 1.
func TestAttributeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.total == 0 {
		t.Skip("no CPU samples taken")
	}
	if err := checkShares(a, 123); err != nil {
		t.Fatal(err)
	}
}

var sink int

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"plwg/internal/vsync.(*member).deliver":   "vsync",
		"plwg/internal/rtnet.(*Node).Do.func1":    "rtnet",
		"plwg/internal/core.init":                 "core",
		"main.(*streamGen).send":                  "app",
		"runtime.mallocgc":                        "",
		"strconv.appendQuotedWith":                "",
		"plwg/internal/naming/sub.Foo":            "naming",
		"plwg/internal/wire.(*Buffer).AppendUint": "wire",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
