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
// The decoder applies the same hardening discipline as the trace
// codec (internal/trace): every length is bounded before allocation,
// checksums are verified before any payload byte is interpreted, and
// failures report the absolute byte offset of the offending field.
// DecodeRequest is the FuzzServeRequest target.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

// reqDecoder tracks the absolute offset while decoding an envelope.
type reqDecoder struct {
	data []byte
	off  int64
}

func (d *reqDecoder) errAt(off int64, format string, args ...any) error {
	return &protoErr{off: off, msg: fmt.Sprintf(format, args...)}
}

func (d *reqDecoder) remaining() int64 { return int64(len(d.data)) - d.off }

func (d *reqDecoder) uvarint(what string) (uint64, error) {
	start := d.off
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.errAt(start, "%s: invalid or truncated uvarint", what)
	}
	d.off += int64(n)
	return v, nil
}

// frame reads one length-prefixed CRC-checked frame, bounding the
// declared length against both the caller's cap and the bytes
// actually present before any allocation or copy.
func (d *reqDecoder) frame(what string, maxLen int64) ([]byte, error) {
	start := d.off
	n, err := d.uvarint(what + " length")
	if err != nil {
		return nil, err
	}
	if int64(n) > maxLen {
		return nil, d.errAt(start, "%s length %d exceeds limit %d", what, n, maxLen)
	}
	if d.remaining() < 4 {
		return nil, d.errAt(d.off, "%s: truncated checksum", what)
	}
	want := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	if int64(n) > d.remaining() {
		return nil, d.errAt(d.off, "%s length %d exceeds remaining %d bytes", what, n, d.remaining())
	}
	payload := d.data[d.off : d.off+int64(n)]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, d.errAt(d.off, "%s: checksum mismatch (got %08x, want %08x)", what, got, want)
	}
	d.off += int64(n)
	return payload, nil
}

// DecodeRequest parses one request envelope. maxBytes bounds the
// whole envelope (0 selects DefaultMaxRequestBytes); data beyond it
// is rejected, not truncated. The returned Request's Trace has been
// fully decoded and hash-verified against any declared content hash.
func DecodeRequest(data []byte, maxBytes int64) (*Request, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxRequestBytes
	}
	d := &reqDecoder{data: data}
	if int64(len(data)) > maxBytes {
		return nil, d.errAt(maxBytes, "request of %d bytes exceeds limit %d", len(data), maxBytes)
	}
	if d.remaining() < int64(len(protoMagic)) || string(data[:len(protoMagic)]) != protoMagic {
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
	tb, err := d.frame("trace", maxBytes)
	if err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, d.errAt(d.off, "%d trailing bytes after trace frame", d.remaining())
	}
	if hdr.Sessions.MaxSessions < 0 {
		return nil, d.errAt(0, "negative max_sessions")
	}
	if hdr.Shards < 0 {
		return nil, d.errAt(0, "negative shards")
	}
	if len(tb) == 0 {
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
	tr, err := trace.Read(bytes.NewReader(tb))
	if err != nil {
		return nil, d.errAt(d.off-int64(len(tb)), "trace: %v", err)
	}
	if hdr.Program != "" && hdr.Program != tr.Program {
		return nil, d.errAt(0, "header program %q does not match trace program %q", hdr.Program, tr.Program)
	}
	hash := contentHash(tb, &hdr)
	if hdr.ContentSHA256 != "" && hdr.ContentSHA256 != hash {
		return nil, d.errAt(0, "declared content_sha256 %s does not match computed %s", hdr.ContentSHA256, hash)
	}
	return &Request{Header: hdr, Trace: tr, TraceBytes: tb, Hash: hash}, nil
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
