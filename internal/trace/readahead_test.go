package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// v3TempFile writes sampleTrace as a v3 file and returns its path.
func v3TempFile(t *testing.T, blockEvents int) (string, *Trace) {
	t.Helper()
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{Version: 3, BlockEvents: blockEvents}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.v3")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, tr
}

// TestFileSourceModes: FileSource — the one file path, double-buffered
// readahead — decodes the same trace as was written, and fails cleanly
// on a missing file. Window-boundary handling is covered directly by
// TestPrefetchReader.
func TestFileSourceModes(t *testing.T) {
	path, tr := v3TempFile(t, 2)
	src := FileSource(path)
	s, err := src.Open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if s.Program != tr.Program {
		t.Fatalf("program %q", s.Program)
	}
	got, err := materializeStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatal("events mismatch")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := FileSource(filepath.Join(t.TempDir(), "none")).Open(); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
}

// errReader fails after yielding its payload.
type errReader struct {
	data []byte
	err  error
}

func (e *errReader) Read(p []byte) (int, error) {
	if len(e.data) == 0 {
		return 0, e.err
	}
	n := copy(p, e.data)
	e.data = e.data[n:]
	return n, nil
}

func (e *errReader) Close() error { return nil }

// TestPrefetchReader: the prefetcher delivers all bytes across window
// boundaries, converts clean EOF, propagates mid-stream errors after
// the buffered bytes drain, and never leaks its producer on early
// Close.
func TestPrefetchReader(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefg"), 100)
	for _, window := range []int{1, 3, 64, 4096} {
		p := newPrefetchReader(io.NopCloser(bytes.NewReader(payload)), window)
		got, err := io.ReadAll(p)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("window %d: payload mismatch", window)
		}
		if n, err := p.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("window %d: read after EOF = %d, %v", window, n, err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("window %d: close: %v", window, err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("window %d: double close: %v", window, err)
		}
	}

	boom := errors.New("disk gone")
	p := newPrefetchReader(&errReader{data: payload, err: boom}, 16)
	got, err := io.ReadAll(p)
	if !errors.Is(err, boom) {
		t.Fatalf("mid-stream error = %v, want %v", err, boom)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("bytes before the error were lost")
	}
	p.Close()

	// Early close with windows still in flight must not deadlock.
	p = newPrefetchReader(io.NopCloser(bytes.NewReader(payload)), 8)
	buf := make([]byte, 4)
	if _, err := io.ReadFull(p, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedSource: the first Open primes the header; later Opens
// share the same immutable object table (pointer-identical — the
// interning the decode pipeline relies on) and decode the same events.
func TestSharedSource(t *testing.T) {
	path, tr := v3TempFile(t, 2)
	for name, src := range map[string]StreamSource{
		"file":  FileSource(path),
		"bytes": func() StreamSource { d, _ := os.ReadFile(path); return BytesSource(d) }(),
	} {
		ss := NewSharedSource(src)
		s1, err := ss.Open()
		if err != nil {
			t.Fatalf("%s: first open: %v", name, err)
		}
		s2, err := ss.Open()
		if err != nil {
			t.Fatalf("%s: second open: %v", name, err)
		}
		if s1.Objects != s2.Objects {
			t.Fatalf("%s: object table not shared across opens", name)
		}
		if s2.NumEvents != uint64(len(tr.Events)) || s2.Program != tr.Program {
			t.Fatalf("%s: header not shared: %+v", name, s2)
		}
		var events []Event
		for s2.Next() {
			blk, err := s2.DecodeIR()
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.DecodeWrites(); err != nil {
				t.Fatal(err)
			}
			events = blk.AppendEvents(events)
		}
		if err := s2.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(events, tr.Events) {
			t.Fatalf("%s: interned stream decoded differently", name)
		}
		s1.Close()
		s2.Close()
	}

	// Idempotent wrap and the no-seek fallback path.
	ss := NewSharedSource(BytesSource(nil))
	if NewSharedSource(ss) != ss {
		t.Fatal("re-wrapping a SharedSource allocated a new one")
	}
	plain := plainSource{path: path}
	pss := NewSharedSource(plain)
	if _, err := pss.Open(); err != nil {
		t.Fatal(err)
	}
	s, err := pss.Open() // falls back to a full open
	if err != nil {
		t.Fatal(err)
	}
	if s.Program != tr.Program {
		t.Fatalf("fallback open: program %q", s.Program)
	}
	s.Close()
}

// plainSource is a StreamSource with no section-open support, forcing
// SharedSource's fallback path.
type plainSource struct{ path string }

func (p plainSource) Open() (*Stream, error) {
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	s, err := OpenStream(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}
