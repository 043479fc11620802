// The larger-than-buffer path of /v1/replay. DecodeRequestStream reads
// the EDBS envelope from an io.Reader through the same parser as
// DecodeRequest (envReader, proto.go): the same bounds, checks, byte
// offsets and content hash, by the same code. The one difference is
// where the trace payload lands: it spools to a temp file while its
// CRC and content hash are computed, and is not read back until the
// checksum over the full payload matches. A v3 trace then replays
// straight from the spool through the streamed sim engine, so peak
// memory is bounded by the server's body buffer no matter how large
// the uploaded trace is.
package serve

import (
	"bufio"
	"encoding/binary"
	"io"
	"os"

	"edb/internal/objects"
	"edb/internal/trace"
)

// DefaultMaxBodyBuffer is how much of a request body the server holds
// in memory before switching to the spooled streaming decoder.
const DefaultMaxBodyBuffer = 8 << 20

// StreamedTrace is the trace of a spooled submission: decoded headers
// plus a StreamSource over the spool file, never the events
// themselves.
type StreamedTrace struct {
	Program   string
	NumEvents uint64
	Objects   *objects.Table
	// Source streams the spooled v3 trace; opens share one decoded
	// header and object table (trace.SharedSource).
	Source trace.StreamSource
	path   string
}

// Cleanup removes the submission's spool file, if any. Safe on any
// Request, any number of times.
func (r *Request) Cleanup() {
	if r.Streamed != nil && r.Streamed.path != "" {
		os.Remove(r.Streamed.path)
		r.Streamed.path = ""
	}
}

// DecodeRequestStream parses one request envelope from r without
// materialising the trace frame: its payload spools to a temp file in
// spoolDir ("" = the system temp dir) and the returned Request carries
// a StreamedTrace over it instead of a decoded *trace.Trace. v1/v2
// payloads — the legacy in-memory formats — are materialised from the
// spool as a fallback. maxBytes bounds the whole envelope exactly like
// DecodeRequest. The caller owns the spool: Request.Cleanup releases
// it.
func DecodeRequestStream(r io.Reader, maxBytes int64, spoolDir string) (*Request, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxRequestBytes
	}
	d := &envReader{r: bufio.NewReaderSize(io.LimitReader(r, maxBytes+1), 1<<16), spoolDir: spoolDir, max: maxBytes}
	return d.decode()
}

// openSpool decodes the n-byte trace payload spooled to f. A v3 trace
// gets one streamed verification pass (every block's columns decode,
// which is what materialising it would prove) and is served from the
// spool; any other payload is materialised, as DecodeRequest does.
func openSpool(f *os.File, n int64) (*trace.Trace, *StreamedTrace, error) {
	var head [4 + binary.MaxVarintLen64]byte
	k, _ := f.ReadAt(head[:], 0)
	if !isV3(head[:k]) {
		tr, err := trace.Read(io.NewSectionReader(f, 0, n))
		return tr, nil, err
	}
	src := trace.NewSharedSource(trace.FileSource(f.Name()))
	s, err := src.Open()
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	for s.Next() {
		if _, err := s.DecodeIR(); err != nil {
			return nil, nil, err
		}
		if err := s.DecodeWrites(); err != nil {
			return nil, nil, err
		}
	}
	if err := s.Err(); err != nil {
		return nil, nil, err
	}
	return nil, &StreamedTrace{
		Program:   s.Program,
		NumEvents: s.NumEvents,
		Objects:   s.Objects,
		Source:    src,
		path:      f.Name(),
	}, nil
}

// isV3 reports whether a trace payload starts "EDBT" + uvarint(3), the
// one version the streamed engine replays. The version is decoded as a
// uvarint, as trace.Read decodes it, so a long spelling of an older
// version (v2 as 0x82 0x00) is materialised, not refused by the
// streamed reader.
func isV3(head []byte) bool {
	if len(head) < 4 || string(head[:4]) != "EDBT" {
		return false
	}
	v, n := binary.Uvarint(head[4:])
	return n > 0 && v == 3
}
