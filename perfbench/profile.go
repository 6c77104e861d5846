package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository's modules as the per-layer profile names
// them, plus the benchmark itself and two buckets for samples with no
// repository frame.
var layers = []string{
	"sim", "workload", "engine", "kvcache", "perf", "sched", "xfer",
	"metrics", "serve", "fleet", "shard", "other", "bench",
	"runtime.gc", "runtime.other",
}

// packageLayer folds packages into layers: model and gpu belong to the
// cost model, stats to the recorder. Repository packages not listed here
// (fault, obs, trace, elastic, ...) count as "other".
var packageLayer = map[string]string{
	"sim": "sim", "workload": "workload", "engine": "engine", "kvcache": "kvcache",
	"perf": "perf", "model": "perf", "gpu": "perf",
	"sched": "sched", "xfer": "xfer", "metrics": "metrics", "stats": "metrics",
	"serve": "serve", "fleet": "fleet", "shard": "shard",
}

// frameLayer names the layer of one symbolized frame, or "" for a frame
// outside the repository (standard library and runtime).
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	const mod = "windserve"
	if !strings.HasPrefix(fn, mod) || len(fn) == len(mod) {
		return ""
	}
	rest := fn[len(mod):]
	if rest[0] != '/' {
		if rest[0] == '.' {
			return "other" // the root package
		}
		return ""
	}
	pkg := rest[1:]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	pkg = pkg[strings.LastIndexByte(pkg, '/')+1:]
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	return "other"
}

// isGCFrame reports whether a runtime frame belongs to the collector.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerShares charges each CPU sample of a gzipped pprof profile to the
// innermost frame that lies in a repository package, so map iteration,
// allocation and GC assists count against the repository code that
// caused them. Samples with no repository frame go to runtime.gc when
// the collector is on the stack and to runtime.other otherwise. It
// returns each layer's share of all samples and the sample count.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	stacks, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	count := make(map[string]int64)
	var total int64
	for _, st := range stacks {
		layer := ""
		gc := false
		for _, fn := range st.frames {
			if layer = frameLayer(fn); layer != "" {
				break
			}
			gc = gc || isGCFrame(fn)
		}
		if layer == "" {
			layer = "runtime.other"
			if gc {
				layer = "runtime.gc"
			}
		}
		count[layer] += st.n
		total += st.n
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(count[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// stack is one profile sample: its frames, innermost first, and how many
// times it was sampled.
type stack struct {
	frames []string
	n      int64
}

// parseProfile decodes the parts of a gzipped profile.proto that layer
// attribution needs: samples, locations with their (possibly inlined)
// lines, functions and the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errors.New("profile: sample without a value")
		}
		st := stack{n: s.vals[0]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				i := funcs[f]
				if i < 0 || i >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: string index %d out of range", i)
				}
				st.frames = append(st.frames, strs[i])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
