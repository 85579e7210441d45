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

// This file splits a CPU profile by layer. It decodes the pprof
// protobuf with the standard library alone: a profile is a gzipped
// message whose samples list location ids (leaf first), whose locations
// list inlined lines (innermost first), and whose functions name into
// a string table.

// cpuShares returns each layer's share of the profile's CPU time. The
// shares of all cpuLayers sum to 1 when the profile holds samples.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		byLayer[layerOf(stack)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// layerOf charges one sample to a layer. It walks the stack from the
// leaf: runtime frames inside the garbage collector or the allocator
// charge the sample to those, math/rand charges it to math_rand, and
// otherwise the first frame in one of the repository's layers (or the
// benchmark itself) takes it. Standard-library and helper frames pass
// the sample on to their caller. A stack with no such frame, such as
// the scheduler idling, is "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg, name := splitFunc(fn)
		switch {
		case pkg == "runtime":
			if isGCFunc(name) {
				return "runtime.gc"
			}
			if strings.HasPrefix(name, "mallocgc") {
				return "runtime.malloc"
			}
		case pkg == "math/rand":
			return "math_rand"
		case pkg == "main":
			return "benchmark"
		case pkg == "dyrs/internal/sim":
			return simLayer(name)
		case strings.HasPrefix(pkg, "dyrs/internal/"):
			l := strings.TrimPrefix(pkg, "dyrs/internal/")
			for _, known := range cpuLayers {
				if l == known {
					return l
				}
			}
		}
	}
	return "other"
}

// splitFunc splits a symbol such as "dyrs/internal/sim.(*Engine).step"
// into its package path and the rest.
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// simLayer splits package sim by receiver: the event engine, the
// fair-share resource, and the sharded executor.
func simLayer(name string) string {
	recv := strings.TrimPrefix(name, "(*")
	if i := strings.IndexAny(recv, ".)["); i >= 0 {
		recv = recv[:i]
	}
	switch recv {
	case "Resource", "Flow", "flowHeap", "flowLess", "NewResource", "SeekEfficiency", "FlatEfficiency":
		return "sim.resource"
	case "ShardedEngine", "NewShardedEngine", "mixDigest":
		return "sim.shard"
	}
	return "sim.engine"
}

// gcFuncPrefixes name the runtime's collector: background and assist
// marking, scanning, write barriers, sweeping and scavenging.
var gcFuncPrefixes = []string{
	"gc", "(*gc", "scan", "mark", "greyobject", "findObject", "wbBuf",
	"bulkBarrier", "(*mspan).sweep", "(*sweepLocked)", "sweepone", "bgsweep",
	"bgscavenge", "(*scavenger", "(*pageAlloc).scavenge", "(*mheap).nextSpanForSweep",
}

func isGCFunc(name string) bool {
	for _, p := range gcFuncPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// decodedProfile keeps what the split needs from a profile.
type decodedProfile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string-table index
	strings  []string
}

type profSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

func decodeProfile(data []byte) (*decodedProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &decodedProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not
					s.locs = appendVarints(s.locs, v, b)
				case 2: // value, packed or not
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b the payload of a length-delimited one.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: v when the
// field arrived unpacked, or every varint in the packed payload b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
