package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layers are the CPU-share buckets a profile folds into, one per layer of
// the program (see README.md), plus unattributed for samples no rule claims.
var layers = []string{"sched", "cache", "htm", "stm", "tm", "ssync", "net", "workload", "runner", "memo", "gc", "unattributed"}

// packageLayer maps the program's packages to layers. sim is split between
// sched and cache by simCacheFiles and simCacheFuncs.
var packageLayer = map[string]string{
	"htm": "htm", "stm": "stm",
	"tm": "tm", "core": "tm",
	"ssync":    "ssync",
	"netstack": "net", "netapps": "net",
	"stamp": "workload", "rmstm": "workload", "clomp": "workload", "apps": "workload",
	"runner": "runner", "experiments": "runner", "harness": "runner",
	"memo": "memo", "runopts": "memo", "journal": "memo",
	// Probe bookkeeping only runs when tracing: it is overhead, not a layer.
	"probe": "unattributed",
}

// simCacheFiles hold the cache/coherence/memory model; the rest of sim is
// the scheduler and coroutine machinery.
var simCacheFiles = map[string]bool{"cache.go": true, "memory.go": true, "presence.go": true, "invariants.go": true}

// simCacheFuncs are the sim.go entry points into the cache model.
var simCacheFuncs = map[string]bool{"(*Context).access": true, "(*Context).Load": true, "(*Context).Store": true, "(*Context).RMW": true, "(*Context).TxAccess": true}

// runtimeGC are runtime function-name prefixes that belong to the Go memory
// manager (allocation, collection, sweeping); runtimeCoro are the coroutine
// switch primitives the scheduler hands off through.
var (
	runtimeGC   = []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "gc", "bgsweep", "bgscavenge", "markroot", "scanobject", "sweepone", "GC"}
	runtimeCoro = []string{"coro", "newcoro"}
)

// classify returns the layer a function belongs to, or "" when the function
// is transparent and the caller's frame decides (other runtime and standard
// library code, the benchmark itself).
func classify(fn, file string) string {
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, p := range runtimeGC {
			if strings.HasPrefix(rest, p) {
				return "gc"
			}
		}
		for _, p := range runtimeCoro {
			if strings.HasPrefix(rest, p) {
				return "sched"
			}
		}
		return ""
	}
	pkg, name := splitFunc(fn)
	dir, base := path.Split(pkg)
	if dir != "tsxhpc/internal/" {
		return ""
	}
	if base == "sim" {
		if simCacheFiles[path.Base(file)] || simCacheFuncs[name] {
			return "cache"
		}
		return "sched"
	}
	return packageLayer[base]
}

// splitFunc splits a symbol such as "tsxhpc/internal/sim.(*Context).Load" or
// "tsxhpc/internal/runner.Submit[...].func1" into its package path and the
// name within the package.
func splitFunc(fn string) (pkg, name string) {
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i] // type arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(head, '/') + 1
	dot := strings.IndexByte(head[slash:], '.')
	if dot < 0 {
		return "", fn
	}
	return fn[:slash+dot], fn[slash+dot+1:]
}

// foldProfile folds a gzipped pprof CPU profile into CPU nanoseconds per
// layer: each sample goes to the first frame, from the leaf outward
// (innermost inlined call first), that classify claims, or to unattributed.
func foldProfile(gz []byte) (map[string]int64, error) {
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	col := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	layerOf := make(map[uint64]string, len(p.locations)) // location id → layer
	for id, loc := range p.locations {
		layerOf[id] = ""
		for _, fid := range loc {
			f := p.functions[fid]
			if l := classify(p.str(f.name), p.str(f.file)); l != "" {
				layerOf[id] = l
				break
			}
		}
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if col >= len(s.values) {
			return nil, errors.New("profile: sample without a value column")
		}
		layer := "unattributed"
		for _, id := range s.locs {
			if l := layerOf[id]; l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.values[col]
	}
	return out, nil
}

// profile is the part of a pprof profile.proto the fold needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	locations   map[uint64][]uint64 // id → function ids, innermost first
	functions   map[uint64]function
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from github.com/google/pprof's profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	var typeIdx []int64
	err := eachField(b, func(f field) error {
		switch f.num {
		case profSampleType:
			return eachField(f.data, func(g field) error {
				if g.num == 1 {
					typeIdx = append(typeIdx, int64(g.v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					return g.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return eachField(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var fn function
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					fn.name = int64(g.v)
				case 4:
					fn.file = int64(g.v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case profStringTable:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(i))
	}
	return p, nil
}

// field is one decoded protobuf field: v for varint and fixed-width wire
// types, data for length-delimited ones.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// uints yields a repeated integer field, packed or not.
func (f field) uints(yield func(uint64)) error {
	if f.wire != 2 {
		yield(f.v)
		return nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
		case 1:
			if n = 8; len(b) < n {
				return errors.New("short fixed64")
			}
			f.v = binary.LittleEndian.Uint64(b)
		case 2:
			l, m := binary.Uvarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return errors.New("bad length-delimited field")
			}
			f.data, n = b[m:m+int(l)], m+int(l)
		case 5:
			if n = 4; len(b) < n {
				return errors.New("short fixed32")
			}
			f.v = uint64(binary.LittleEndian.Uint32(b))
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
