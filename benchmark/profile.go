package main

// A stdlib-only decoder for the pprof profile.proto format that
// runtime/pprof writes (gzip-compressed protocol buffers). It keeps what
// the layer fold needs: per sample its value, goroutine labels and stack
// of function names, leaf first, inlined frames expanded.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// profile is a decoded CPU profile.
type profile struct {
	samples []profSample
}

type profSample struct {
	nanos  int64             // CPU time the sample stands for
	labels map[string]string // goroutine labels (string-valued only)
	stack  []string          // function names, leaf first
}

// Field numbers of profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocationID = 1
	fSampleValue      = 2
	fSampleLabel      = 3

	fLabelKey = 1
	fLabelStr = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited field.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
}

// pbFields splits a protobuf message into its fields. Fixed-width fields
// do not occur in profile.proto and are rejected.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.varint, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, errors.New("profile: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedInts appends a repeated integer field that may be packed (one
// length-delimited run of varints) or not (one varint per field).
func repeatedInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile parses a profile, gzip-compressed or not, and returns its
// samples valued by the "cpu" sample type in nanoseconds.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	fields, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indices
		rawSamples  [][]byte
		funcs       = map[uint64]uint64{}   // function id → name string index
		locs        = map[uint64][]uint64{} // location id → function ids, leaf first
	)
	for _, f := range fields {
		switch f.num {
		case fProfileStringTable:
			strs = append(strs, string(f.bytes))
		case fProfileSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var vt [2]uint64
			for _, s := range sub {
				switch s.num {
				case fValueTypeType:
					vt[0] = s.varint
				case fValueTypeUnit:
					vt[1] = s.varint
				}
			}
			sampleTypes = append(sampleTypes, vt)
		case fProfileSample:
			rawSamples = append(rawSamples, f.bytes)
		case fProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case fFunctionID:
					id = s.varint
				case fFunctionName:
					name = s.varint
				}
			}
			funcs[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case fLocationID:
					id = s.varint
				case fLocationLine:
					line, err := pbFields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fLineFunctionID {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locs[id] = fns
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := -1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}

	p := &profile{samples: make([]profSample, 0, len(rawSamples))}
	for _, raw := range rawSamples {
		sub, err := pbFields(raw)
		if err != nil {
			return nil, err
		}
		var locIDs, values []uint64
		var ps profSample
		for _, s := range sub {
			switch s.num {
			case fSampleLocationID:
				if locIDs, err = repeatedInts(locIDs, s); err != nil {
					return nil, err
				}
			case fSampleValue:
				if values, err = repeatedInts(values, s); err != nil {
					return nil, err
				}
			case fSampleLabel:
				lf, err := pbFields(s.bytes)
				if err != nil {
					return nil, err
				}
				var key, val uint64
				for _, l := range lf {
					switch l.num {
					case fLabelKey:
						key = l.varint
					case fLabelStr:
						val = l.varint
					}
				}
				if val != 0 {
					if ps.labels == nil {
						ps.labels = map[string]string{}
					}
					ps.labels[str(key)] = str(val)
				}
			}
		}
		if valueIdx >= len(values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps.nanos = int64(values[valueIdx])
		for _, id := range locIDs {
			for _, fn := range locs[id] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}
