package main

// CPU-profile attribution by module. The profile runtime/pprof writes is
// a gzipped protocol buffer (github.com/google/pprof proto/profile.proto);
// this file decodes the few fields attribution needs by hand, so the
// benchmark needs no module beyond the standard library and no tool
// beyond the Go toolchain.
//
// Each sample is charged to the module of its innermost frame that
// belongs to a repository package; a sample with no repository frame is
// charged to go.runtime when its innermost frame is in the runtime, and
// to std otherwise. Module shares therefore sum to 1.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePath is the import path prefix of the repository's packages.
const modulePath = "repro/"

// shareModules are the modules a cpu_share metric is reported for; any
// other repository package is charged to "other".
var shareModules = []string{
	"bench", "cluster", "core", "experiment", "live", "obs", "obs.flight",
	"runner", "sched", "schedd", "sim", "sim.equeue", "stats", "trace",
	"vclock", "workload", "other", "std", "go.runtime",
}

// moduleOf maps a function name from a profile to its module, or ""
// when the function is outside the repository.
//
//	repro/internal/obs/flight.(*Recorder).AppendEvent → obs.flight
//	repro/pkg/schedclient.(*Client).Stats             → schedclient
//	main.runStream                                    → bench
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, modulePath+"perfbench") {
		return "bench"
	}
	if !strings.HasPrefix(fn, modulePath) {
		return ""
	}
	pkg := packageOf(fn)
	pkg = strings.TrimPrefix(pkg, modulePath)
	pkg = strings.TrimPrefix(pkg, "internal/")
	pkg = strings.TrimPrefix(pkg, "pkg/")
	if pkg == "" {
		return "repro"
	}
	return strings.ReplaceAll(pkg, "/", ".")
}

// packageOf returns the import path of a qualified function name: the
// path up to the last slash, then up to the first dot after it.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isRuntime reports whether a function belongs to the Go runtime.
func isRuntime(fn string) bool {
	pkg := packageOf(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") ||
		strings.HasPrefix(pkg, "internal/runtime")
}

// attribute charges every sample of a profile to a module and returns
// each module's share of the total sampled CPU time. Modules outside
// shareModules (other than std and go.runtime) are folded into "other".
func attribute(p *profileData) map[string]float64 {
	known := map[string]bool{}
	for _, m := range shareModules {
		known[m] = true
	}
	charged := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		mod := ""
		for _, fn := range s.frames {
			if m := moduleOf(fn); m != "" {
				mod = m
				break
			}
		}
		switch {
		case mod == "" && len(s.frames) > 0 && isRuntime(s.frames[0]):
			mod = "go.runtime"
		case mod == "":
			mod = "std"
		case !known[mod]:
			mod = "other"
		}
		charged[mod] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(shareModules))
	for _, m := range shareModules {
		if total > 0 {
			shares[m] = charged[m] / total
		} else {
			shares[m] = 0
		}
	}
	return shares
}

// profileData is the decoded part of a profile: each sample's stack as
// function names, innermost first, and its last value (CPU nanoseconds
// for a CPU profile).
type profileData struct {
	samples []sample
}

type sample struct {
	frames []string
	value  float64
}

// parseProfile decodes a (gzipped or raw) pprof protocol buffer.
func parseProfile(b []byte) (*profileData, error) {
	if len(b) > 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if b, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileData{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		out := sample{value: float64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			fids, ok := locLines[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample names undefined location %d", loc)
			}
			for _, fid := range fids {
				idx := funcNames[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("profile: function name out of range")
				}
				out.frames = append(out.frames, strs[idx])
			}
		}
		p.samples = append(p.samples, out)
	}
	return p, nil
}

// eachField walks the fields of one protocol-buffer message, calling fn
// with the field number, wire type, and either the varint value or the
// length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
