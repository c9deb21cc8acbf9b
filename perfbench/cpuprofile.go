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

// cpuBuckets are the cpu_share.<bucket> names: every repro/internal
// package, the benchmark itself, GC work not charged to a caller, and the
// rest (scheduler, syscalls, runtime outside GC).
var cpuBuckets = []string{
	"buffer", "chaos", "client", "clock", "congress", "core", "fetch", "flowctl",
	"gcs", "lease", "metrics", "mpeg", "netsim", "obs", "placement", "server",
	"sim", "store", "sweep", "tiger", "transport", "wire",
	"bench", "runtime_gc", "other",
}

var knownBucket = func() map[string]bool {
	m := make(map[string]bool, len(cpuBuckets))
	for _, b := range cpuBuckets {
		m[b] = true
	}
	return m
}()

// gcFrames mark a stack as background garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcStart",
}

// cpuShares decodes a gzipped pprof CPU profile and attributes every
// sample's CPU time to the innermost repro/internal/* (or benchmark) frame
// on its stack, so map, atomic and lock time is charged to its caller.
// Samples with no such frame go to runtime_gc when they belong to the
// collector's background workers and to other otherwise. It returns the
// share of each bucket (summing to 1) and the profiled CPU seconds.
func cpuShares(gz []byte) (map[string]float64, float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byBucket := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		ns := s.values[1]
		total += ns
		byBucket[p.bucket(s.locs)] += ns
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
		if total > 0 {
			shares[b] = float64(byBucket[b]) / float64(total)
		}
	}
	return shares, float64(total) / 1e9, nil
}

func (p *profile) bucket(locs []uint64) string {
	gc := false
	for _, id := range locs { // leaf first
		for _, fid := range p.locations[id] { // innermost inlined frame first
			name := p.strings[p.functions[fid]]
			if rest, ok := strings.CutPrefix(name, "repro/internal/"); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 && knownBucket[rest[:i]] {
					return rest[:i]
				}
				return "other" // a package added after this list was written
			}
			if strings.HasPrefix(name, "main.") {
				return "bench"
			}
			for _, g := range gcFrames {
				if name == g {
					gc = true
				}
			}
		}
	}
	if gc {
		return "runtime_gc"
	}
	return "other"
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
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
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("cpu profile: function name out of range")
		}
	}
	return p, nil
}

// appendPacked appends a repeated uint64 field that arrives either as one
// varint (v, b == nil) or as a packed run of varints (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
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

// eachField walks a protobuf message, calling f with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
func eachField(buf []byte, f func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("wire type %d", wt)
		}
	}
	return nil
}
