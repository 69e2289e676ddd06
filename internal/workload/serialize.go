package workload

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"

	"synts/internal/isa"
)

// Trace serialization. Characterising a benchmark (running the kernel and
// the circuit-level delay analysis) is the expensive half of the pipeline;
// persisting the instruction streams lets tools re-analyse a fixed trace
// across circuit or solver changes — the same role gem5 checkpoint traces
// play in the paper's flow.

// traceFile is the on-disk envelope. Versioned so stale caches fail loudly
// rather than silently misparse.
type traceFile struct {
	Version int
	Name    string
	Threads int
	Streams []*Stream
}

// traceVersion 2 stores isa.Inst in its 16-byte layout, the immediate in C;
// a version 1 file would decode with every immediate silently 0.
const traceVersion = 2

// SaveStreams writes the streams gzip-compressed to w.
func SaveStreams(w io.Writer, name string, streams []*Stream) error {
	if len(streams) == 0 {
		return fmt.Errorf("workload: no streams to save")
	}
	zw := gzip.NewWriter(w)
	enc := gob.NewEncoder(zw)
	err := enc.Encode(traceFile{
		Version: traceVersion,
		Name:    name,
		Threads: len(streams),
		Streams: streams,
	})
	if err != nil {
		return fmt.Errorf("workload: encoding trace: %w", err)
	}
	return zw.Close()
}

// LoadStreams reads streams previously written by SaveStreams and returns
// the benchmark name they were recorded from. It rejects a file whose
// streams no kernel run could have produced (see validateStreams).
func LoadStreams(r io.Reader) (string, []*Stream, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return "", nil, fmt.Errorf("workload: opening trace: %w", err)
	}
	defer zr.Close()
	var tf traceFile
	if err := gob.NewDecoder(zr).Decode(&tf); err != nil {
		return "", nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	if tf.Version != traceVersion {
		return "", nil, fmt.Errorf("workload: trace version %d, want %d", tf.Version, traceVersion)
	}
	if len(tf.Streams) != tf.Threads {
		return "", nil, fmt.Errorf("workload: trace header says %d threads, found %d", tf.Threads, len(tf.Streams))
	}
	if err := validateStreams(tf.Streams); err != nil {
		return "", nil, fmt.Errorf("workload: invalid trace: %w", err)
	}
	return tf.Name, tf.Streams, nil
}

// validateStreams checks what Run guarantees and the consumers index by:
// at least one thread, each stream numbered by its position, the same
// number of intervals on every thread, and instructions that are valid
// ops with 5-bit register fields, C unused on R-format ops other than MAC
// and at most 16 bits on I-format ops.
func validateStreams(streams []*Stream) error {
	if len(streams) == 0 {
		return fmt.Errorf("no threads")
	}
	for t, s := range streams {
		if s == nil {
			return fmt.Errorf("stream %d is missing", t)
		}
		if s.Thread != t {
			return fmt.Errorf("stream %d says it is thread %d", t, s.Thread)
		}
		if len(s.Intervals) != len(streams[0].Intervals) {
			return fmt.Errorf("thread %d has %d intervals, thread 0 has %d", t, len(s.Intervals), len(streams[0].Intervals))
		}
		for ii, iv := range s.Intervals {
			for i, in := range iv {
				if err := validInst(in); err != nil {
					return fmt.Errorf("thread %d interval %d instruction %d: %w", t, ii, i, err)
				}
			}
		}
	}
	return nil
}

func validInst(in isa.Inst) error {
	switch {
	case !in.Op.Valid():
		return fmt.Errorf("undefined op %d", uint8(in.Op))
	case in.Rd > 31 || in.Rs > 31 || in.Rt > 31:
		return fmt.Errorf("%v register field out of range", in.Op)
	case in.Op.IFormat() && in.C > 0xFFFF:
		return fmt.Errorf("%v immediate %#x wider than 16 bits", in.Op, in.C)
	case !in.Op.IFormat() && in.Op != isa.MAC && in.C != 0:
		return fmt.Errorf("%v carries C = %#x", in.Op, in.C)
	}
	return nil
}
