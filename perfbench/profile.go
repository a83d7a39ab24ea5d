package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sagrelay/internal/benchprob"
	"sagrelay/internal/lp"
)

// cpuShares is a CPU profile reduced to what the per-layer metrics need:
// each sample's stack (leaf first, inlined frames expanded) and weight.
type cpuShares struct {
	total   int64
	samples []profSample
}

type profSample struct {
	funcs  []string
	weight int64
}

// pkgOf returns the import path of a fully qualified Go function name, e.g.
// "sagrelay/internal/lp.(*Solver).welim" -> "sagrelay/internal/lp".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// pkgShare is the share of CPU samples with a frame of package pkg on the
// stack: the package's own time plus the runtime work it causes.
func (c *cpuShares) pkgShare(pkg string) float64 {
	return c.share(func(fn string) bool { return pkgOf(fn) == pkg })
}

// underShare is the share of CPU samples with any of fns on the stack.
func (c *cpuShares) underShare(fns ...string) float64 {
	return c.share(func(fn string) bool {
		for _, want := range fns {
			if fn == want {
				return true
			}
		}
		return false
	})
}

// share is the share of CPU samples with a frame that match accepts.
func (c *cpuShares) share(match func(fn string) bool) float64 {
	if c == nil || c.total == 0 {
		return 0
	}
	var n int64
	for _, s := range c.samples {
		for _, f := range s.funcs {
			if match(f) {
				n += s.weight
				break
			}
		}
	}
	return float64(n) / float64(c.total)
}

// top lists the k packages with the most self time, as "pkg=share".
func (c *cpuShares) top(k int) string {
	if c == nil || c.total == 0 {
		return ""
	}
	self := map[string]int64{}
	for _, s := range c.samples {
		if len(s.funcs) > 0 {
			self[pkgOf(s.funcs[0])] += s.weight
		}
	}
	pkgs := make([]string, 0, len(self))
	for p := range self {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if self[pkgs[i]] != self[pkgs[j]] {
			return self[pkgs[i]] > self[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	if len(pkgs) > k {
		pkgs = pkgs[:k]
	}
	parts := make([]string, len(pkgs))
	for i, p := range pkgs {
		parts[i] = fmt.Sprintf("%s=%.3f", p, float64(self[p])/float64(c.total))
	}
	return strings.Join(parts, " ")
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields the shares need are read: samples (location ids
// and values), locations (their lines' function ids), functions (name
// string index) and the string table.
func parseCPUProfile(data []byte) (*cpuShares, error) {
	if len(data) == 0 {
		return &cpuShares{}, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]uint64{}
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					s.values = appendVarints(s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &cpuShares{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// The last value is CPU nanoseconds; the first the sample count.
		w := int64(s.values[len(s.values)-1])
		var funcs []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if idx := fnName[f]; idx < uint64(len(strs)) {
					funcs = append(funcs, strs[idx])
				}
			}
		}
		out.samples = append(out.samples, profSample{funcs: funcs, weight: w})
		out.total += w
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields pass their value in v; length-delimited fields their bytes in b.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value for the
// unpacked encoding, the whole run for the packed one.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// lpMicro times single calls into lp.Solver on the benchprob ILPQC
// relaxation: a cold root solve and a warm-started child solve (variable 0
// fixed to 1 from the root's basis), each the median of repeated calls, in
// microseconds.
func lpMicro() (coldUS, warmUS float64, err error) {
	const reps = 41
	ctx := context.Background()
	rel := benchprob.ILPQCRelaxation()
	s := lp.NewSolver()
	cold := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := s.Solve(rel, nil, nil); err != nil {
			return 0, 0, fmt.Errorf("lp cold root: %w", err)
		}
		cold = append(cold, float64(time.Since(start).Nanoseconds())/1e3)
	}
	parent, err := s.WarmSolve(ctx, rel, nil, nil, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("lp warm parent: %w", err)
	}
	fix := map[int]float64{0: 1}
	warm := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := s.WarmSolve(ctx, rel, fix, nil, parent.Basis); err != nil {
			return 0, 0, fmt.Errorf("lp warm child: %w", err)
		}
		warm = append(warm, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(cold), median(warm), nil
}
