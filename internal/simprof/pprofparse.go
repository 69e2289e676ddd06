package simprof

// Minimal pprof profile.proto reader — just enough of the wire format to
// validate and cross-check the artifacts this package writes (and any
// spec-conforming encoder: both packed and unpacked repeated fields are
// accepted). Used by cmd/obscheck and the encoder round-trip tests; it
// is a decoder for the subset of profile.proto simprof emits, not a
// general protobuf library.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// ParsedValueType is one decoded sample_type column.
type ParsedValueType struct {
	Type string
	Unit string
}

// ParsedSample is one decoded sample with its stack resolved to frame
// names (leaf first, as on the wire) and numeric labels by key.
type ParsedSample struct {
	Stack     []string
	Values    []int64
	NumLabels map[string]int64
}

// Parsed is the decoded profile.
type Parsed struct {
	SampleTypes       []ParsedValueType
	Samples           []ParsedSample
	Comments          []string
	DefaultSampleType string
}

// maxInflatedBytes bounds the gunzipped size of a profile Parse accepts:
// far above a real artifact (a size-1 batch run writes 97 KB raw), so a
// small gzip bomb fails with an error instead of allocating without bound.
const maxInflatedBytes = 8 << 20

// Parse decodes a pprof artifact, transparently gunzipping when the
// input starts with the gzip magic bytes. A gzipped input that inflates
// past maxInflatedBytes (8 MiB) is an error.
func Parse(data []byte) (*Parsed, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("simprof: gunzip: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, maxInflatedBytes+1))
		if err == nil && len(raw) > maxInflatedBytes {
			err = fmt.Errorf("inflates past %d bytes", maxInflatedBytes)
		}
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("simprof: gunzip: %w", err)
		}
		data = raw
	}
	return parseProfile(data)
}

// field is one decoded wire field: varint-typed fields carry num,
// length-delimited ones carry chunk.
type field struct {
	num   int
	wire  int
	v     uint64
	chunk []byte
}

// walkFields iterates a message's fields, invoking cb for each.
func walkFields(b []byte, cb func(f field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("simprof: truncated field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			v, n := uvarint(b)
			if n <= 0 {
				return fmt.Errorf("simprof: truncated varint in field %d", f.num)
			}
			f.v, b = v, b[n:]
		case wireBytes:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("simprof: truncated bytes field %d", f.num)
			}
			f.chunk, b = b[n:n+int(l)], b[n+int(l):]
		case 1: // fixed64 — not emitted by simprof, skip for robustness
			if len(b) < 8 {
				return fmt.Errorf("simprof: truncated fixed64 field %d", f.num)
			}
			b = b[8:]
		case 5: // fixed32
			if len(b) < 4 {
				return fmt.Errorf("simprof: truncated fixed32 field %d", f.num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("simprof: unsupported wire type %d in field %d", f.wire, f.num)
		}
		if err := cb(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints decodes a repeated varint field that may be packed
// (wire type 2) or unpacked (wire type 0).
func repeatedVarints(f field, dst []uint64) ([]uint64, error) {
	if f.wire == wireVarint {
		return append(dst, f.v), nil
	}
	b := f.chunk
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("simprof: truncated packed varint in field %d", f.num)
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

type rawSample struct {
	locIDs []uint64
	values []uint64
	labels []field
}

func parseProfile(data []byte) (*Parsed, error) {
	var (
		strTab     []string
		valueTypes [][]byte
		samples    []rawSample
		locations  [][]byte
		functions  [][]byte
		comments   []uint64
		defType    uint64
	)
	err := walkFields(data, func(f field) error {
		switch f.num {
		case fProfileSampleType:
			valueTypes = append(valueTypes, f.chunk)
		case fProfileSample:
			var s rawSample
			if err := walkFields(f.chunk, func(sf field) error {
				var err error
				switch sf.num {
				case fSampleLocationID:
					s.locIDs, err = repeatedVarints(sf, s.locIDs)
				case fSampleValue:
					s.values, err = repeatedVarints(sf, s.values)
				case fSampleLabel:
					s.labels = append(s.labels, sf)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case fProfileLocation:
			locations = append(locations, f.chunk)
		case fProfileFunction:
			functions = append(functions, f.chunk)
		case fProfileStringTable:
			strTab = append(strTab, string(f.chunk))
		case fProfileComment:
			comments = append(comments, f.v)
		case fProfileDefaultSampleType:
			defType = f.v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strTab)) {
			return "", fmt.Errorf("simprof: string index %d out of table (len %d)", i, len(strTab))
		}
		return strTab[i], nil
	}
	if len(strTab) == 0 || strTab[0] != "" {
		return nil, fmt.Errorf("simprof: string table must start with the empty string")
	}

	// Function id -> name.
	funcName := map[uint64]string{}
	for _, chunk := range functions {
		var id, nameIdx uint64
		if err := walkFields(chunk, func(f field) error {
			switch f.num {
			case fFunctionID:
				id = f.v
			case fFunctionName:
				nameIdx = f.v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		name, err := str(nameIdx)
		if err != nil {
			return nil, err
		}
		funcName[id] = name
	}

	// Location id -> frame name via its first line's function.
	locName := map[uint64]string{}
	for _, chunk := range locations {
		var id, fnID uint64
		sawLine := false
		if err := walkFields(chunk, func(f field) error {
			switch f.num {
			case fLocationID:
				id = f.v
			case fLocationLine:
				if sawLine {
					return nil
				}
				sawLine = true
				return walkFields(f.chunk, func(lf field) error {
					if lf.num == fLineFunctionID {
						fnID = lf.v
					}
					return nil
				})
			}
			return nil
		}); err != nil {
			return nil, err
		}
		name, ok := funcName[fnID]
		if !ok {
			return nil, fmt.Errorf("simprof: location %d references unknown function %d", id, fnID)
		}
		locName[id] = name
	}

	p := &Parsed{}
	for _, chunk := range valueTypes {
		var typIdx, unitIdx uint64
		if err := walkFields(chunk, func(f field) error {
			switch f.num {
			case fValueTypeType:
				typIdx = f.v
			case fValueTypeUnit:
				unitIdx = f.v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		typ, err := str(typIdx)
		if err != nil {
			return nil, err
		}
		unit, err := str(unitIdx)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ParsedValueType{Type: typ, Unit: unit})
	}

	for i, rs := range samples {
		ps := ParsedSample{NumLabels: map[string]int64{}}
		for _, id := range rs.locIDs {
			name, ok := locName[id]
			if !ok {
				return nil, fmt.Errorf("simprof: sample %d references unknown location %d", i, id)
			}
			ps.Stack = append(ps.Stack, name)
		}
		for _, v := range rs.values {
			ps.Values = append(ps.Values, int64(v))
		}
		for _, lf := range rs.labels {
			var keyIdx uint64
			var num int64
			if err := walkFields(lf.chunk, func(f field) error {
				switch f.num {
				case fLabelKey:
					keyIdx = f.v
				case fLabelNum:
					num = int64(f.v)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			key, err := str(keyIdx)
			if err != nil {
				return nil, err
			}
			ps.NumLabels[key] = num
		}
		p.Samples = append(p.Samples, ps)
	}

	for _, c := range comments {
		s, err := str(c)
		if err != nil {
			return nil, err
		}
		p.Comments = append(p.Comments, s)
	}
	if p.DefaultSampleType, err = str(defType); err != nil {
		return nil, err
	}
	return p, nil
}
