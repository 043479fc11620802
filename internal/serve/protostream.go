// Incremental decoding of the EDBS request envelope: the
// larger-than-buffer path of /v1/replay. DecodeRequest (proto.go)
// needs the whole envelope in memory; DecodeRequestStream reads it
// from an io.Reader, buffering only the header frame and spooling the
// trace frame's payload to a temp file while computing its CRC and
// content hash incrementally. The decoded submission then replays
// straight from the spool through the streamed sim engine, so peak
// memory is bounded by the server's body buffer no matter how large
// the uploaded trace is.
//
// The discipline matches DecodeRequest exactly: every length is
// bounded before any allocation, the trace frame's CRC is verified
// before a single payload byte is interpreted (the spool is written
// but not read until the checksum over the full payload matches), and
// every failure is a typed protoErr carrying the same absolute byte
// offsets the buffered decoder reports.
package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
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

// streamDecoder mirrors reqDecoder over an io.Reader, tracking the
// absolute envelope offset for error reporting.
type streamDecoder struct {
	r   *bufio.Reader
	off int64
}

func (d *streamDecoder) errAt(off int64, format string, args ...any) error {
	return &protoErr{off: off, msg: fmt.Sprintf(format, args...)}
}

// readFull fills buf, converting any shortfall or transport error into
// a typed bad-request at the current offset.
func (d *streamDecoder) readFull(what string, buf []byte) error {
	n, err := io.ReadFull(d.r, buf)
	d.off += int64(n)
	if err != nil {
		return d.errAt(d.off, "%s: %v", what, err)
	}
	return nil
}

func (d *streamDecoder) uvarint(what string) (uint64, error) {
	start := d.off
	v, err := binary.ReadUvarint(d)
	if err != nil {
		return 0, d.errAt(start, "%s: invalid or truncated uvarint", what)
	}
	return v, nil
}

// ReadByte implements io.ByteReader for binary.ReadUvarint, keeping
// the offset in step.
func (d *streamDecoder) ReadByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

// frame reads one length-prefixed CRC-checked frame fully into memory
// — used for the bounded header frame only.
func (d *streamDecoder) frame(what string, maxLen int64) ([]byte, error) {
	start := d.off
	n, err := d.uvarint(what + " length")
	if err != nil {
		return nil, err
	}
	if int64(n) > maxLen {
		return nil, d.errAt(start, "%s length %d exceeds limit %d", what, n, maxLen)
	}
	var crcBuf [4]byte
	if err := d.readFull(what+": truncated checksum", crcBuf[:]); err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	payloadOff := d.off
	payload := make([]byte, n)
	if err := d.readFull(what, payload); err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, d.errAt(payloadOff, "%s: checksum mismatch (got %08x, want %08x)", what, got, want)
	}
	return payload, nil
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
	d := &streamDecoder{r: bufio.NewReaderSize(io.LimitReader(r, maxBytes+1), 1<<16)}

	magic := make([]byte, len(protoMagic))
	if _, err := io.ReadFull(d.r, magic); err != nil || string(magic) != protoMagic {
		return nil, d.errAt(0, "bad magic (want %q)", protoMagic)
	}
	d.off = int64(len(protoMagic))
	ver, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != protoVersion {
		return nil, d.errAt(int64(len(protoMagic)), "unsupported version %d (want %d)", ver, protoVersion)
	}
	hb, err := d.frame("header", maxHeaderBytes)
	if err != nil {
		return nil, err
	}
	var hdr RequestHeader
	dec := json.NewDecoder(bytes.NewReader(hb))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return nil, d.errAt(d.off-int64(len(hb)), "header JSON: %v", err)
	}
	if dec.More() {
		return nil, d.errAt(d.off, "header JSON: trailing data")
	}
	if hdr.Sessions.MaxSessions < 0 {
		return nil, d.errAt(0, "negative max_sessions")
	}
	if hdr.Shards < 0 {
		return nil, d.errAt(0, "negative shards")
	}

	// Trace frame: length and checksum buffered, payload spooled.
	lenOff := d.off
	n, err := d.uvarint("trace length")
	if err != nil {
		return nil, err
	}
	// Bound against what the whole-envelope limit leaves, so the typed
	// rejection fires before any transport-level cap can.
	if budget := maxBytes - d.off - 4; int64(n) > budget {
		return nil, d.errAt(lenOff, "trace length %d exceeds limit %d", n, budget)
	}
	var crcBuf [4]byte
	if err := d.readFull("trace: truncated checksum", crcBuf[:]); err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	traceStart := d.off

	if n == 0 {
		if err := expectEOF(d, maxBytes); err != nil {
			return nil, err
		}
		if hdr.MutateFrom != nil {
			return nil, d.errAt(d.off, "mutate_from requires the full trace payload")
		}
		if hdr.ContentSHA256 == "" {
			return nil, d.errAt(d.off, "empty trace frame without a declared content hash")
		}
		if !validHexHash(hdr.ContentSHA256) {
			return nil, d.errAt(0, "malformed content_sha256 %q", hdr.ContentSHA256)
		}
		return &Request{Header: hdr, Hash: hdr.ContentSHA256}, nil
	}

	tmp, err := os.CreateTemp(spoolDir, "edb-serve-spool-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("serve: creating trace spool: %w", err)
	}
	path := tmp.Name()
	drop := func() {
		tmp.Close()
		os.Remove(path)
	}
	crc := crc32.NewIEEE()
	sha := sha256.New()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	copied, err := io.Copy(io.MultiWriter(bw, crc, sha), io.LimitReader(d.r, int64(n)))
	d.off += copied
	if err != nil {
		drop()
		return nil, fmt.Errorf("serve: spooling trace: %w", err)
	}
	if copied < int64(n) {
		drop()
		return nil, d.errAt(traceStart, "trace length %d exceeds remaining %d bytes", n, copied)
	}
	if got := crc.Sum32(); got != want {
		drop()
		return nil, d.errAt(traceStart, "trace: checksum mismatch (got %08x, want %08x)", got, want)
	}
	if err := expectEOF(d, maxBytes); err != nil {
		drop()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		drop()
		return nil, fmt.Errorf("serve: spooling trace: %w", err)
	}
	if err := tmp.Close(); err != nil {
		drop()
		return nil, fmt.Errorf("serve: spooling trace: %w", err)
	}

	// Content address, computed incrementally over the spooled bytes:
	// identical to contentHash on the materialised payload.
	hashQuestion(sha, &hdr)
	hash := hex.EncodeToString(sha.Sum(nil))
	if hdr.ContentSHA256 != "" && hdr.ContentSHA256 != hash {
		drop()
		return nil, d.errAt(0, "declared content_sha256 %s does not match computed %s", hdr.ContentSHA256, hash)
	}

	req, err := openSpooled(&hdr, path, traceStart)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	if req.Streamed == nil {
		// Legacy fallback materialised the trace; the spool is done.
		os.Remove(path)
	}
	req.Hash = hash
	return req, nil
}

// expectEOF verifies the envelope ends here, mirroring DecodeRequest's
// trailing-byte rejection (the count saturates at the read limit).
func expectEOF(d *streamDecoder, maxBytes int64) error {
	if _, err := d.r.ReadByte(); err == io.EOF {
		return nil
	}
	d.r.UnreadByte()
	extra, _ := io.Copy(io.Discard, d.r)
	return d.errAt(d.off, "%d trailing bytes after trace frame", extra)
}

// openSpooled validates the spooled trace payload and builds the
// Request around it: v3 gets a full streaming CRC + decode
// verification pass (every block's columns decode, exactly what
// DecodeRequest's materialisation proves) and is served from the
// spool; v1/v2 fall back to materialising from disk. traceStart is the
// payload's envelope offset, so errors match the buffered decoder's.
func openSpooled(hdr *RequestHeader, path string, traceStart int64) (*Request, error) {
	pe := func(format string, args ...any) error {
		return &protoErr{off: traceStart, msg: fmt.Sprintf(format, args...)}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reopening trace spool: %w", err)
	}
	sniff := make([]byte, 5)
	sn, _ := io.ReadFull(f, sniff)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: reopening trace spool: %w", err)
	}
	// "EDBT" + uvarint(version); versions fit one byte.
	if sn == 5 && string(sniff[:4]) == "EDBT" && sniff[4] < 3 {
		defer f.Close()
		tr, err := trace.Read(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			return nil, pe("trace: %v", err)
		}
		if hdr.Program != "" && hdr.Program != tr.Program {
			return nil, pe("header program %q does not match trace program %q", hdr.Program, tr.Program)
		}
		return &Request{Header: *hdr, Trace: tr}, nil
	}
	f.Close()

	src := trace.NewSharedSource(trace.FileSource(path))
	s, err := src.Open()
	if err != nil {
		return nil, pe("trace: %v", err)
	}
	for s.Next() {
		if _, err := s.DecodeIR(); err != nil {
			s.Close()
			return nil, pe("trace: %v", err)
		}
		if err := s.DecodeWrites(); err != nil {
			s.Close()
			return nil, pe("trace: %v", err)
		}
	}
	if err := s.Err(); err != nil {
		s.Close()
		return nil, pe("trace: %v", err)
	}
	s.Close()
	if hdr.Program != "" && hdr.Program != s.Program {
		return nil, pe("header program %q does not match trace program %q", hdr.Program, s.Program)
	}
	return &Request{
		Header: *hdr,
		Streamed: &StreamedTrace{
			Program:   s.Program,
			NumEvents: s.NumEvents,
			Objects:   s.Objects,
			Source:    src,
			path:      path,
		},
	}, nil
}
