package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A stdlib-only reader for the gzipped protobuf CPU profiles that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto). It
// decodes only what the layer fold needs: the sample, location, function
// and string tables.

// profile is a decoded CPU profile: each sample's stack as function
// names, leaf first, with inlined frames expanded innermost first.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string
	count int64 // first sample value: the number of samples with this stack
}

// protobuf field numbers used below.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// field is one decoded protobuf field: the varint value or the bytes of
// a length-delimited field.
type field struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// fields decodes one protobuf message into its fields, in order.
func fields(msg []byte) ([]field, error) {
	var out []field
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errTruncated
		}
		msg = msg[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.value, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errTruncated
			}
			msg = msg[n:]
		case wireFixed64:
			if len(msg) < 8 {
				return nil, errTruncated
			}
			f.value, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case wireFixed32:
			if len(msg) < 4 {
				return nil, errTruncated
			}
			f.value, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case wireBytes:
			size, n := binary.Uvarint(msg)
			if n <= 0 || size > uint64(len(msg)-n) {
				return nil, errTruncated
			}
			f.data, msg = msg[n:n+int(size)], msg[n+int(size):]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints returns a repeated integer field's values, which encoders write
// either packed (one length-delimited field) or one varint per value.
func (f field) uints() ([]uint64, error) {
	if f.wire == wireVarint {
		return []uint64{f.value}, nil
	}
	if f.wire != wireBytes {
		return nil, fmt.Errorf("profile: field %d: wire type %d is not an integer", f.num, f.wire)
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile as runtime/pprof writes it.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := map[uint64]int64{}    // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct{ locs, values []uint64 }
	var raws []rawSample
	p := &profile{}
	for _, f := range top {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.data))
		case fProfileFunction:
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case fFunctionID:
					id = g.value
				case fFunctionName:
					name = int64(g.value)
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case fLocationID:
					id = g.value
				case fLocationLine:
					line, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fLineFunction {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileSample:
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range sub {
				switch g.num {
				case fSampleLocation:
					v, err := g.uints()
					if err != nil {
						return nil, err
					}
					s.locs = append(s.locs, v...)
				case fSampleValue:
					v, err := g.uints()
					if err != nil {
						return nil, err
					}
					s.values = append(s.values, v...)
				}
			}
			raws = append(raws, s)
		}
	}

	name := func(fn uint64) (string, error) {
		idx, ok := funcName[fn]
		if !ok || idx < 0 || idx >= int64(len(strs)) {
			return "", fmt.Errorf("profile: function %d has no name", fn)
		}
		return strs[idx], nil
	}
	for _, r := range raws {
		if len(r.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := profSample{count: int64(r.values[0])}
		for _, loc := range r.locs {
			fns, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			for _, fn := range fns {
				n, err := name(fn)
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, n)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Fold rules: how samples are charged to layers.

// layers are the repository modules the benchmark reports wall time for,
// plus two buckets for stacks with no repository frame: "gc" (only Go
// runtime frames: garbage collection and the scheduler) and "other".
var layers = []string{
	"sim", "pcie", "ntb", "memory", "nvme", "core", "smartio", "sisci",
	"block", "fio", "hostdriver", "nvmeof", "rdma", "arrival", "qos", "cluster",
	"trace", "telemetry", "attr", "stats", "gc", "other",
}

const modulePrefix = "repro/internal/"

// module returns the repository module a function belongs to, or "".
func module(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// handoffFrames are the runtime functions a goroutine passes through when
// the kernel hands control from one simulated process to another: parking,
// readying, channel operations and the scheduler.
var handoffFrames = []string{
	"gopark", "goready", "ready", "chansend", "chanrecv", "selectgo", "park_m",
	"schedule", "findRunnable", "execute", "gogo", "mcall", "wakep", "startm",
	"stopm", "notewakeup", "notesleep", "futex", "runqget", "runqput",
	"casgstatus", "lock2", "unlock2", "send", "recv",
}

func isHandoff(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, h := range handoffFrames {
		if strings.HasPrefix(name, h) {
			return true
		}
	}
	return false
}

// folded is a profile charged to layers.
type folded struct {
	total int64
	layer map[string]int64
	// handoff counts samples in kernel process handoff: a runtime park,
	// ready, channel or scheduler frame below (leafward of) a sim frame,
	// with no other repository frame in between.
	handoff int64
	// malloc counts samples with an allocation (mallocgc) on the stack.
	malloc int64
	// copy counts samples whose leaf is a memory move or clear.
	copy int64
}

// share returns n as a fraction of all samples.
func (f folded) share(n int64) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(n) / float64(f.total)
}

// add folds p in. Each sample is charged to the first repository module
// frame from the leaf; samples without one go to "gc" when every frame is
// the Go runtime's and to "other" otherwise, as do modules outside layers.
func (f *folded) add(p *profile) {
	if f.layer == nil {
		f.layer = map[string]int64{}
	}
	for _, s := range p.samples {
		f.total += s.count
		owner := ""
		handoff := false
		for _, fn := range s.stack {
			if m := module(fn); m != "" {
				owner = m
				break
			}
			if isHandoff(fn) {
				handoff = true
			}
		}
		if owner != "" && !slices.Contains(layers, owner) {
			owner = "other"
		}
		if owner == "" {
			owner = "gc"
			for _, fn := range s.stack {
				if !isRuntime(fn) {
					owner = "other"
					break
				}
			}
		}
		f.layer[owner] += s.count
		if owner == "sim" && handoff {
			f.handoff += s.count
		}
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "runtime.mallocgc") {
				f.malloc += s.count
				break
			}
		}
		if len(s.stack) > 0 {
			leaf := s.stack[0]
			if leaf == "runtime.memmove" || strings.HasPrefix(leaf, "runtime.memclr") {
				f.copy += s.count
			}
		}
	}
}
