package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// CPU attribution from a saved pprof CPU profile. Each sample goes to
// the innermost frame on its stack that belongs to a layer: a
// plwg/internal/<layer> package, or the benchmark's own code ("app":
// load generator, upcall recorder and output checks). A sample with
// neither goes to "runtime". The stack of a sample is read leaf first,
// and within a location its inlined frames innermost first.

// cpuLayers are the attribution buckets, in report order. Internal
// packages not listed here land in "other".
var cpuLayers = []string{
	"app", "check", "core", "explore", "ids", "metrics", "naming",
	"netsim", "policy", "rtnet", "sim", "trace", "vsync", "wire",
	"runtime", "other",
}

// attribution is the CPU profile's breakdown.
type attribution struct {
	// share is each layer's fraction of sampled CPU time; the values sum
	// to 1 when any CPU was sampled.
	share map[string]float64
	// fmt, gob and gc are the fractions of samples with formatting
	// (fmt, strconv), encoding/gob, or garbage-collector frames anywhere
	// on the stack. They overlap the layer shares.
	fmt, gob, gc float64
	// total is the sampled CPU time, in ns.
	total int64
}

type pprofLoc struct{ funcs []uint64 } // function ids, innermost first

type pprofSample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

type pprofProfile struct {
	sampleTypes []string // type names, e.g. "samples", "cpu"
	samples     []pprofSample
	locs        map[uint64]pprofLoc
	funcs       map[uint64]string // function id -> name
	strs        []string
}

// attribute decodes a gzipped (or raw) pprof profile and attributes its
// CPU time.
func attribute(data []byte) (attribution, error) {
	p, err := parsePprof(data)
	if err != nil {
		return attribution{}, err
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); weight by the
	// last value, which is the time.
	vi := len(p.sampleTypes) - 1
	if vi < 0 {
		return attribution{}, errors.New("profile has no sample types")
	}
	a := attribution{share: make(map[string]float64, len(cpuLayers))}
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		a.share[l] = 0
		known[l] = true
	}
	var fmtT, gobT, gcT int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return attribution{}, errors.New("sample with too few values")
		}
		w := s.values[vi]
		a.total += w
		layer := ""
		var isFmt, isGob, isGC bool
		for _, lid := range s.locs {
			loc, ok := p.locs[lid]
			if !ok {
				return attribution{}, fmt.Errorf("sample names unknown location %d", lid)
			}
			for _, fid := range loc.funcs {
				name := p.funcs[fid]
				if layer == "" {
					layer = layerOf(name)
				}
				isFmt = isFmt || strings.HasPrefix(name, "fmt.") || strings.HasPrefix(name, "strconv.")
				isGob = isGob || strings.HasPrefix(name, "encoding/gob.")
				isGC = isGC || strings.HasPrefix(name, "runtime.gc") || strings.HasPrefix(name, "runtime.bgsweep") ||
					strings.HasPrefix(name, "runtime.bgscavenge") || strings.HasPrefix(name, "runtime.markroot")
			}
		}
		switch {
		case layer == "":
			layer = "runtime"
		case !known[layer]:
			layer = "other"
		}
		a.share[layer] += float64(w)
		if isFmt {
			fmtT += w
		}
		if isGob {
			gobT += w
		}
		if isGC {
			gcT += w
		}
	}
	if a.total > 0 {
		for l := range a.share {
			a.share[l] /= float64(a.total)
		}
		a.fmt = float64(fmtT) / float64(a.total)
		a.gob = float64(gobT) / float64(a.total)
		a.gc = float64(gcT) / float64(a.total)
	}
	return a, nil
}

// layerOf names the layer a function belongs to, or "" when it belongs
// to none (runtime, standard library).
func layerOf(fn string) string {
	const internal = "plwg/internal/"
	if strings.HasPrefix(fn, internal) {
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "app"
	}
	return ""
}

// checkShares verifies that the shares sum to 1 and that the per-layer
// costs sum to the whole, within float rounding.
func checkShares(a attribution, whole float64) error {
	if a.total == 0 {
		return errors.New("profile sampled no CPU time")
	}
	var sum, parts float64
	for _, s := range a.share {
		sum += s
		parts += s * whole
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("CPU shares sum to %v, not 1", sum)
	}
	if math.Abs(parts-whole) > 1e-9*math.Max(1, whole) {
		return fmt.Errorf("per-layer CPU sums to %v, not %v", parts, whole)
	}
	return nil
}

// parsePprof decodes the subset of the pprof protobuf format that
// attribution needs (profile.proto: sample_type=1, sample=2,
// location=4, function=5, string_table=6).
func parsePprof(data []byte) (*pprofProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	p := &pprofProfile{locs: make(map[uint64]pprofLoc), funcs: make(map[uint64]string)}
	var sampleTypes [][2]uint64 // (type, unit) string indices
	type rawFunc struct{ id, name uint64 }
	var funcs []rawFunc
	err := eachField(data, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 1: // ValueType
			var t [2]uint64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // Sample
			var s pprofSample
			err := eachField(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wt, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var loc pprofLoc
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = loc
			return err
		case 5: // Function
			var f rawFunc
			err := eachField(b, func(fl, _ int, v uint64, _ []byte) error {
				switch fl {
				case 1:
					f.id = v
				case 2:
					f.name = v
				}
				return nil
			})
			funcs = append(funcs, f)
			return err
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(p.strs)) {
			return "", fmt.Errorf("string index %d out of range", i)
		}
		return p.strs[i], nil
	}
	for _, t := range sampleTypes {
		s, err := str(t[0])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, f := range funcs {
		name, err := str(f.name)
		if err != nil {
			return nil, err
		}
		p.funcs[f.id] = name
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// fn gets the value in v; for length-delimited fields the bytes in b.
func eachField(data []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wireType int, v uint64, b []byte) error {
	if wireType == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
