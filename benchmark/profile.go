package benchmark

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile.proto the ledger reads: each
// sample's stack as function names, leaf first, and its values.
type profile struct {
	// sampleTypes names each value as "type/unit", e.g. "cpu/nanoseconds".
	sampleTypes []string
	samples     []profileSample
	period      int64
}

type profileSample struct {
	stack  []string
	values []int64
}

// value returns the sample's value of the named type, or 0.
func (p *profile) value(s profileSample, typ string) int64 {
	for i, t := range p.sampleTypes {
		if t == typ && i < len(s.values) {
			return s.values[i]
		}
	}
	return 0
}

// parseProfile decodes a gzipped profile.proto (the format runtime/pprof
// writes). It reads the fields the ledger needs and skips the rest.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		p       profile
		strs    []string
		types   [][2]uint64
		samples []rawSample
		lines   = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcs   = make(map[uint64]uint64)   // function id -> name string index
	)
	err = fields(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			lines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, s := range samples {
		ps := profileSample{values: make([]int64, len(s.vals))}
		for i, v := range s.vals {
			ps.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range lines[loc] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return &p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields calls fn for each field of one protobuf message: varints arrive in
// v, length-delimited fields in b. Fixed-width fields are skipped.
func fields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errTruncated
			}
			buf = buf[w:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value per field, or packed into a length-delimited run.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
