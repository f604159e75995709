package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostLayers are the layers host CPU time is attributed to, in print
// order. A sample belongs to gc when any frame is collector work;
// otherwise to the package of its leaf-most repro/internal frame; to
// bench for the benchmark's own client code; else to runtime.
var hostLayers = []string{"sim", "kernel", "pthread", "shm", "replication", "tcpstack", "tcprep",
	"simnet", "obs", "core", "failure", "rejoin", "apps", "bench", "gc", "runtime"}

// pkgLayer folds repro/internal packages without a layer of their own
// into the layer that drives them.
var pkgLayer = map[string]string{"kmem": "kernel", "chaos": "core", "hw": "core"}

// selfByLayer groups a gzipped pprof CPU profile's samples by layer and
// returns each layer's share of the total in percent.
func selfByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	cost := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		v := s.value
		cost[classify(stack)] += v
		total += v
	}
	out := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		out[l] = 100 * ratio(float64(cost[l]), float64(total))
	}
	return out, nil
}

func classify(stack []string) string {
	for _, f := range stack {
		if isGC(f) {
			return "gc"
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if l, ok := pkgLayer[pkg]; ok {
				return l
			}
			return pkg
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

func isGC(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.wbBuf"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof protobuf the grouping needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]int64    // function -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds
}

// parseProfile decodes the fields of profile.proto used here: sample (2),
// location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := fields(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					vals = appendVarints(vals, w, v, d)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field in either encoding.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
