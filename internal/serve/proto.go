// The wire protocol of edb-serve's replay endpoint: a length-framed,
// CRC-checked request envelope carrying a JSON header and a trace
// file, and the JSONL result stream the server answers with.
//
// Envelope layout (all integers are unsigned varints; each frame's
// CRC is IEEE CRC-32 over exactly its payload bytes, little-endian):
//
//	"EDBS"  uvarint(version=1)
//	uvarint(len(header))  crc32(4B LE)  header JSON
//	uvarint(len(trace))   crc32(4B LE)  trace file (format v1/v2/v3)
//	EOF (trailing bytes are an error)
//
// The trace frame may be empty only when the header declares a
// content hash (a hash-only submission: the client asks for a cached
// result without re-uploading the trace).
//
// One parser (envReader) decodes the envelope for both entry points,
// DecodeRequest (in memory) and DecodeRequestStream (protostream.go),
// with the same hardening discipline as the trace codec
// (internal/trace): every length is bounded before allocation,
// checksums are verified before any payload byte is interpreted, and
// failures report the absolute byte offset of the offending field.
// DecodeRequest is the FuzzServeRequest target; FuzzServeRequestParity
// decodes each input through both entry points.
package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"

	"edb/internal/sessions"
	"edb/internal/trace"
)

const (
	protoMagic   = "EDBS"
	protoVersion = 1

	// maxHeaderBytes caps the JSON header frame.
	maxHeaderBytes = 1 << 20
	// DefaultMaxRequestBytes caps a whole request envelope unless the
	// server configures its own bound.
	DefaultMaxRequestBytes = 64 << 20
)

// SessionSpec selects the subset of discovered monitor sessions a
// replay submission wants results for. The zero value selects every
// discovered session. Types filters by session-type name
// (sessions.Type.String values); Indices picks explicit discovery
// indices; MaxSessions truncates the selection after filtering. When
// both Types and Indices are set a session qualifies if either
// matches.
type SessionSpec struct {
	Types       []string `json:"types,omitempty"`
	Indices     []int    `json:"indices,omitempty"`
	MaxSessions int      `json:"max_sessions,omitempty"`
}

// canonical renders the spec deterministically (sorted, deduplicated)
// for content addressing: two submissions asking the same question
// hash identically regardless of field order in their JSON.
func (sp *SessionSpec) canonical() string {
	types := append([]string(nil), sp.Types...)
	sort.Strings(types)
	types = dedupStrings(types)
	idx := append([]int(nil), sp.Indices...)
	sort.Ints(idx)
	idx = dedupInts(idx)
	var b strings.Builder
	b.WriteString("types=")
	b.WriteString(strings.Join(types, ","))
	fmt.Fprintf(&b, ";indices=%v;max=%d", idx, sp.MaxSessions)
	return b.String()
}

func dedupStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// SpecError reports a session spec that cannot be applied to the
// submitted trace — a client error (HTTP 400), not a server fault.
type SpecError struct{ msg string }

// Error implements the error interface.
func (e *SpecError) Error() string { return e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// Select applies the spec to a discovered session set, returning the
// chosen sessions (in discovery order) and their original discovery
// indices. An empty spec selects everything.
func (sp *SessionSpec) Select(set *sessions.Set) (chosen []sessions.Session, origIndex []int, err error) {
	byType := make(map[string]bool, len(sp.Types))
	for _, t := range sp.Types {
		byType[t] = true
	}
	known := make(map[string]bool)
	for t := sessions.Type(0); t < sessions.NumTypes; t++ {
		known[t.String()] = true
	}
	for t := range byType {
		if !known[t] {
			return nil, nil, specErrf("serve: unknown session type %q", t)
		}
	}
	byIndex := make(map[int]bool, len(sp.Indices))
	for _, i := range sp.Indices {
		if i < 0 || i >= len(set.Sessions) {
			return nil, nil, specErrf("serve: session index %d outside [0, %d)", i, len(set.Sessions))
		}
		byIndex[i] = true
	}
	all := len(sp.Types) == 0 && len(sp.Indices) == 0
	for i := range set.Sessions {
		s := &set.Sessions[i]
		if all || byType[s.Type.String()] || byIndex[i] {
			chosen = append(chosen, *s)
			origIndex = append(origIndex, i)
			if sp.MaxSessions > 0 && len(chosen) >= sp.MaxSessions {
				break
			}
		}
	}
	if len(chosen) == 0 {
		return nil, nil, specErrf("serve: session spec selects no sessions")
	}
	return chosen, origIndex, nil
}

// RequestHeader is the JSON header frame of a replay submission.
type RequestHeader struct {
	// Program optionally names the workload; when set it must match
	// the uploaded trace's program name.
	Program string `json:"program,omitempty"`
	// Sessions selects the replayed session subset.
	Sessions SessionSpec `json:"sessions"`
	// Shards is accepted and ignored: every replay is one pass. The
	// decoder rejects unknown fields, so dropping it would reject old
	// clients; a negative value is still a bad request.
	Shards int `json:"shards,omitempty"`
	// ContentSHA256 declares the submission's content hash
	// (Request.Hash of a previous identical submission). Required for
	// hash-only submissions; on full uploads the server verifies it
	// against the computed hash and rejects a mismatch.
	ContentSHA256 string `json:"content_sha256,omitempty"`
	// MutateFrom marks a session-mutation submission (POST
	// /v1/session): the tenant previously replayed this trace under the
	// MutateFrom spec and now wants the Sessions spec — typically a
	// grown watch set. The server derives the base submission's content
	// hash from the *uploaded* trace bytes plus this spec (so a stale
	// or foreign base can never be reused: content addressing pins the
	// base to the identical trace), reuses the base artifact's rows by
	// discovery index, and replays only the added sessions. MutateFrom
	// is excluded from the content hash: a mutation and a direct
	// submission of the same target spec are the same content and must
	// dedupe. Rejected on /v1/replay.
	MutateFrom *SessionSpec `json:"mutate_from,omitempty"`
}

// Request is one decoded replay submission.
type Request struct {
	Header RequestHeader
	// Trace is the decoded trace; nil for a hash-only submission.
	Trace *trace.Trace
	// TraceBytes is the raw trace frame payload (the content-hash
	// input); nil for hash-only and spooled submissions.
	TraceBytes []byte
	// Streamed is the spooled trace of a submission decoded by
	// DecodeRequestStream (protostream.go); nil for materialised and
	// hash-only submissions. Exactly one of Trace and Streamed is set
	// on a full submission.
	Streamed *StreamedTrace
	// Hash is the submission's content address: the hex SHA-256 of the
	// trace payload concatenated with the canonical session spec. For
	// hash-only submissions it is the declared hash.
	Hash string
}

// HashOnly reports whether the submission carries no trace payload.
func (r *Request) HashOnly() bool { return r.Trace == nil && r.Streamed == nil }

// traceHead returns the submission's trace as session discovery sees
// it: the materialised trace, or a spooled trace's program and object
// table.
func (r *Request) traceHead() *trace.Trace {
	if st := r.Streamed; st != nil {
		return &trace.Trace{Program: st.Program, Objects: st.Objects}
	}
	return r.Trace
}

// contentHash computes a submission's content address. It covers the
// trace payload bytes and the canonical replay question (hashQuestion)
// — not the tenant, which is what makes identical submissions dedupe
// across tenants.
func contentHash(traceBytes []byte, h *RequestHeader) string {
	sum := sha256.New()
	sum.Write(traceBytes)
	hashQuestion(sum, h)
	return hex.EncodeToString(sum.Sum(nil))
}

// hashQuestion writes the canonical replay question that follows the
// trace bytes in a content address. The shards term is the literal 0
// whatever the header says: shards no longer changes a result, and the
// literal keeps valid every address a submission that left shards out
// ever received, the hash-only fuzz seeds' included.
func hashQuestion(w io.Writer, h *RequestHeader) {
	fmt.Fprintf(w, "|%s|shards=0", h.Sessions.canonical())
}

// HashRequest computes the content address a full submission with
// this header and trace payload will get — what a client declares in
// ContentSHA256 to submit hash-only.
func HashRequest(hdr *RequestHeader, traceBytes []byte) string {
	return contentHash(traceBytes, hdr)
}

// EncodeRequest serialises a replay submission. traceBytes may be nil
// for a hash-only submission (then hdr.ContentSHA256 must be set).
func EncodeRequest(w io.Writer, hdr *RequestHeader, traceBytes []byte) error {
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("serve: encoding request header: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(protoMagic)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(protoVersion)
	frame := func(payload []byte) {
		put(uint64(len(payload)))
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		buf.Write(crc[:])
		buf.Write(payload)
	}
	frame(hb)
	frame(traceBytes)
	_, err = w.Write(buf.Bytes())
	return err
}

// protoErr is a decode failure with the byte offset of the offending
// field. The server maps it to HTTP 400.
type protoErr struct {
	off int64
	msg string
}

func (e *protoErr) Error() string {
	return fmt.Sprintf("serve: bad request at byte %d: %s", e.off, e.msg)
}

// IsBadRequest reports whether err is a request-decode failure (as
// opposed to an internal error).
func IsBadRequest(err error) bool {
	var pe *protoErr
	return errors.As(err, &pe)
}

func errAt(off int64, format string, args ...any) error {
	return &protoErr{off: off, msg: fmt.Sprintf(format, args...)}
}

// envReader is the one envelope parser behind DecodeRequest and
// DecodeRequestStream, tracking the absolute offset of every field.
// It reads an envelope already in memory (buf) or, when r is set, one
// arriving incrementally; the only difference is where the trace
// payload lands: a subslice of buf, or a spool file in spoolDir.
type envReader struct {
	buf      []byte
	r        *bufio.Reader
	spoolDir string
	off      int64
	max      int64 // bound on the whole envelope
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (d *envReader) ReadByte() (byte, error) {
	if d.r != nil {
		b, err := d.r.ReadByte()
		if err == nil {
			d.off++
		}
		return b, err
	}
	if d.off >= int64(len(d.buf)) {
		return 0, io.EOF
	}
	d.off++
	return d.buf[d.off-1], nil
}

func (d *envReader) uvarint(what string) (uint64, error) {
	start := d.off
	v, err := binary.ReadUvarint(d)
	if err != nil {
		return 0, errAt(start, "%s: invalid or truncated uvarint", what)
	}
	return v, nil
}

// next consumes up to n bytes, fewer only where the envelope ends: a
// subslice of buf in memory, a fresh buffer when streaming. Callers
// bound n first.
func (d *envReader) next(n int64) []byte {
	var p []byte
	if d.r != nil {
		p = make([]byte, n)
		k, _ := io.ReadFull(d.r, p)
		p = p[:k]
	} else {
		p = d.buf[d.off : d.off+min(n, int64(len(d.buf))-d.off)]
	}
	d.off += int64(len(p))
	return p
}

// frameHead reads a frame's length and checksum. The length is bounded
// by maxLen and by what the envelope bound leaves after the checksum,
// before anything is allocated or copied, so a streamed upload gets
// the typed rejection before any transport-level cap can fire.
func (d *envReader) frameHead(what string, maxLen int64) (int64, uint32, error) {
	start := d.off
	n, err := d.uvarint(what + " length")
	if err != nil {
		return 0, 0, err
	}
	if limit := min(maxLen, d.max-d.off-4); limit < 0 || n > uint64(limit) {
		return 0, 0, errAt(start, "%s length %d exceeds limit %d", what, n, limit)
	}
	crcOff := d.off
	if c := d.next(4); len(c) == 4 {
		return int64(n), binary.LittleEndian.Uint32(c), nil
	}
	return 0, 0, errAt(crcOff, "%s: truncated checksum", what)
}

// payload consumes a frame's n payload bytes into sink (when set) and
// verifies the checksum. In memory it returns the bytes as a subslice
// of buf; streamed, it returns them only when there is no sink.
func (d *envReader) payload(what string, n int64, want uint32, sink io.Writer) ([]byte, error) {
	start := d.off
	crc := crc32.NewIEEE()
	var p []byte
	got := n
	if d.r != nil && sink != nil {
		var err error
		got, err = io.Copy(io.MultiWriter(sink, crc), io.LimitReader(d.r, n))
		d.off += got
		if err != nil {
			return nil, fmt.Errorf("serve: spooling %s: %w", what, err)
		}
	} else {
		p = d.next(n)
		got = int64(len(p))
		crc.Write(p)
		if sink != nil {
			sink.Write(p)
		}
	}
	if got < n {
		return nil, errAt(start, "%s length %d exceeds remaining %d bytes", what, n, got)
	}
	if c := crc.Sum32(); c != want {
		return nil, errAt(start, "%s: checksum mismatch (got %08x, want %08x)", what, c, want)
	}
	return p, nil
}

// end rejects anything after the trace frame (a streamed count stops
// at the envelope bound).
func (d *envReader) end() error {
	extra := int64(len(d.buf)) - d.off
	if d.r != nil {
		var err error
		if extra, err = io.Copy(io.Discard, d.r); err != nil {
			return errAt(d.off, "after trace frame: %v", err)
		}
	}
	if extra != 0 {
		return errAt(d.off, "%d trailing bytes after trace frame", extra)
	}
	return nil
}

// decode parses one envelope. Header-level rejections report offset 0
// (negative fields, a malformed or mismatched declared hash, a program
// that does not match the trace) and run as soon as their inputs are
// read: the negative-field checks before the trace frame, the declared
// hash before the trace is decoded.
func (d *envReader) decode() (req *Request, err error) {
	if string(d.next(int64(len(protoMagic)))) != protoMagic {
		return nil, errAt(0, "bad magic (want %q)", protoMagic)
	}
	ver, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != protoVersion {
		return nil, errAt(int64(len(protoMagic)), "unsupported version %d (want %d)", ver, protoVersion)
	}
	n, want, err := d.frameHead("header", maxHeaderBytes)
	if err != nil {
		return nil, err
	}
	hb, err := d.payload("header", n, want, nil)
	if err != nil {
		return nil, err
	}
	var hdr RequestHeader
	dec := json.NewDecoder(bytes.NewReader(hb))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return nil, errAt(d.off-n, "header JSON: %v", err)
	}
	if dec.More() {
		return nil, errAt(d.off, "header JSON: trailing data")
	}
	if hdr.Sessions.MaxSessions < 0 {
		return nil, errAt(0, "negative max_sessions")
	}
	if hdr.Shards < 0 {
		return nil, errAt(0, "negative shards")
	}

	if n, want, err = d.frameHead("trace", d.max); err != nil {
		return nil, err
	}
	traceOff := d.off
	sha := sha256.New()
	sink := io.Writer(sha)
	var spool *os.File
	if d.r != nil && n > 0 {
		if spool, err = os.CreateTemp(d.spoolDir, "edb-serve-spool-*.tmp"); err != nil {
			return nil, fmt.Errorf("serve: creating trace spool: %w", err)
		}
		defer func() {
			// By now decoding has read the whole spool back, so a
			// failing Close has nothing left to report.
			spool.Close()
			if req == nil || req.Streamed == nil {
				os.Remove(spool.Name())
			}
		}()
		sink = io.MultiWriter(spool, sha)
	}
	tb, err := d.payload("trace", n, want, sink)
	if err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	if n == 0 {
		if hdr.MutateFrom != nil {
			return nil, errAt(d.off, "mutate_from requires the full trace payload")
		}
		if hdr.ContentSHA256 == "" {
			return nil, errAt(d.off, "empty trace frame without a declared content hash")
		}
		if !validHexHash(hdr.ContentSHA256) {
			return nil, errAt(0, "malformed content_sha256 %q", hdr.ContentSHA256)
		}
		return &Request{Header: hdr, Hash: hdr.ContentSHA256}, nil
	}
	hashQuestion(sha, &hdr)
	hash := hex.EncodeToString(sha.Sum(nil))
	if hdr.ContentSHA256 != "" && hdr.ContentSHA256 != hash {
		return nil, errAt(0, "declared content_sha256 %s does not match computed %s", hdr.ContentSHA256, hash)
	}
	req = &Request{Header: hdr, TraceBytes: tb, Hash: hash}
	if spool == nil {
		req.Trace, err = trace.Read(bytes.NewReader(tb))
	} else {
		req.Trace, req.Streamed, err = openSpool(spool, n)
	}
	if err != nil {
		return nil, errAt(traceOff, "trace: %v", err)
	}
	if p := req.traceHead().Program; hdr.Program != "" && hdr.Program != p {
		return nil, errAt(0, "header program %q does not match trace program %q", hdr.Program, p)
	}
	return req, nil
}

// DecodeRequest parses one request envelope held in memory. maxBytes
// bounds the whole envelope (0 selects DefaultMaxRequestBytes); data
// beyond it is rejected, not truncated. The returned Request's Trace
// has been fully decoded and hash-verified against any declared
// content hash, and its TraceBytes is a subslice of data.
func DecodeRequest(data []byte, maxBytes int64) (*Request, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxRequestBytes
	}
	if int64(len(data)) > maxBytes {
		return nil, errAt(maxBytes, "request of %d bytes exceeds limit %d", len(data), maxBytes)
	}
	return (&envReader{buf: data, max: maxBytes}).decode()
}

// validHexHash reports whether s is a well-formed lowercase hex
// SHA-256.
func validHexHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
