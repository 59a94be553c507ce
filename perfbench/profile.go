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

// layers maps each of the repository's packages that the benchmark
// reports on to its layer name.
var layers = map[string]string{
	"pushpull/internal/scenario": "scenario",
	"pushpull/internal/cluster":  "cluster",
	"pushpull/internal/sim":      "sim",
	"pushpull/internal/smp":      "smp",
	"pushpull/internal/vm":       "vm",
	"pushpull/internal/mem":      "mem",
	"pushpull/internal/nic":      "nic",
	"pushpull/internal/ether":    "ether",
	"pushpull/internal/gbn":      "gbn",
	"pushpull/internal/pushpull": "pushpull",
	"pushpull/comm":              "comm",
	"pushpull/coll":              "coll",
	"pushpull/internal/trace":    "trace",
	"pushpull/internal/fault":    "fault",
	"pushpull/internal/stats":    "stats",
}

// layerNames is every layer a sample can land in, in report order. The
// runtime buckets take samples with no frame in a named package.
var layerNames = []string{
	"scenario", "cluster", "sim", "smp", "vm", "mem", "nic", "ether", "gbn",
	"pushpull", "comm", "coll", "trace", "fault", "stats",
	"rt_sched", "rt_stack", "rt_gc", "rt_other",
}

// pkgOf returns the import path of the package a profiled function
// name belongs to, e.g. "pushpull/internal/sim" for
// "pushpull/internal/sim.(*Engine).Run".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may hold paths in brackets
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf assigns one stack sample, innermost frame first, to a layer:
//
//   - trace, if any frame is in internal/trace, so formatting callbacks
//     such as ChannelID.String run on behalf of a trace call count as
//     tracing;
//   - rt_stack, if the stack runs through goroutine stack growth. The
//     profiler unwinds runtime.morestack onto the goroutine that grew,
//     so these samples always carry the grower's frames; without this
//     step they would hide inside whichever package that was;
//   - otherwise the innermost frame in a named package;
//   - otherwise rt_sched (the scheduler's own stack after mcall),
//     rt_gc (background mark, sweep and scavenge workers) or rt_other.
func layerOf(frames []string) string {
	for _, f := range frames {
		if pkgOf(f) == "pushpull/internal/trace" {
			return "trace"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.newstack", "runtime.copystack":
			return "rt_stack"
		}
	}
	for _, f := range frames {
		if l, ok := layers[pkgOf(f)]; ok {
			return l
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.goexit0":
			return "rt_sched"
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "rt_gc"
		}
	}
	return "rt_other"
}

// layerShares decodes a gzipped CPU profile and returns each layer's
// share of the samples and the sample count.
func layerShares(profile []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		counts[layerOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// stack is one profile sample: its function names, innermost first, and
// its sample count.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's first
// value and its stack of function names, inlined frames expanded.
func decodeProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strtab  []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = walk(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []int64
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[0]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := walk(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				i := fnName[fn]
				if i < 0 || int(i) >= len(strtab) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, i, len(strtab))
				}
				frames = append(frames, strtab[i])
			}
		}
		out = append(out, stack{frames: frames, count: s.value})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walk calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walk(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
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
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
