// The artifact store: crash-safe, content-addressed replay results.
// Artifacts are keyed by the submission's content hash (trace bytes +
// canonical session spec — deliberately not the tenant, so
// identical submissions dedupe across tenants: possession of the hash
// is the capability to read the result). Writes go through
// internal/safeio (temp + fsync + rename), so a kill -9 mid-write
// leaves either the old state or the new state on disk, never a torn
// artifact; OpenStore sweeps orphaned temp files and quarantines
// entries that fail validation, treating both as misses.
//
// Begin/wait/commit implement single-flight per hash: when N tenants
// submit the same content concurrently, one leader computes and the
// rest wait for its result instead of replaying N times (and instead
// of N copies of the trace crossing the wire — followers can submit
// hash-only).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"edb/internal/safeio"
	"edb/internal/sim"
)

// SessionResult is one session's replay outcome, tagged with its
// original discovery index (submissions select subsets, and
// sessions.NewSet renumbers — the wire result must speak the
// discovery numbering the client used in its SessionSpec).
type SessionResult struct {
	Index    int          `json:"index"`
	Type     string       `json:"type"`
	Label    string       `json:"label"`
	Counting sim.Counting `json:"counting"`
}

// Artifact is one stored replay result.
type Artifact struct {
	// RequestSHA is the content hash the artifact is stored under.
	RequestSHA string `json:"request_sha"`
	Program    string `json:"program"`
	NumEvents  int    `json:"num_events"`
	// ResultSHA is the hex SHA-256 over the canonical session-result
	// lines — the bit-identical-results anchor: any two computations
	// of the same submission must agree on it.
	ResultSHA string          `json:"result_sha"`
	Sessions  []SessionResult `json:"sessions"`
}

// Store is the on-disk artifact store.
type Store struct {
	dir string

	mu       sync.Mutex
	inflight map[string]*flight
}

// flight is one in-progress computation of a hash.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// OpenStore opens (creating if needed) the artifact store at dir and
// recovers from any crash debris: safeio temp files (`*.tmp-*`) are
// removed, and artifacts that fail validation — unparseable JSON, or
// a request_sha that does not match the filename — are quarantined to
// `<name>.corrupt` so the entry reads as a miss and gets recomputed.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: opening store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if strings.Contains(name, ".tmp-") {
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		hash := strings.TrimSuffix(name, ".json")
		if !validHexHash(hash) || !validArtifactFile(path, hash) {
			os.Rename(path, path+".corrupt")
		}
	}
	return &Store{dir: dir, inflight: make(map[string]*flight)}, nil
}

// validArtifactFile checks an artifact parses and is filed under its
// own request hash.
func validArtifactFile(path, hash string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return false
	}
	return a.RequestSHA == hash && a.ResultSHA != ""
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// Get loads the artifact stored under hash, if any. A validation
// failure reads as a miss, never an error — the store degrades to
// recomputation.
func (s *Store) Get(hash string) (*Artifact, bool) {
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		return nil, false
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil || a.RequestSHA != hash {
		return nil, false
	}
	return &a, true
}

// put writes the artifact crash-safely.
func (s *Store) put(a *Artifact) error {
	return safeio.WriteFile(s.path(a.RequestSHA), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(a)
	})
}

// Begin opens a single-flight computation for hash. When leader is
// true the caller must finish with exactly one commit or fail call.
// When leader is false, wait blocks until the leader finishes and
// returns its artifact (or its error); a leader failure is returned
// to waiters rather than cached, so the next submission retries.
// commit's persist argument selects whether the artifact is written
// to disk — false degrades to an uncached success (the result still
// reaches this flight's waiters, the next identical submission
// recomputes).
func (s *Store) Begin(hash string) (leader bool, wait func(ctx context.Context) (*Artifact, error), commit func(a *Artifact, persist bool) error, fail func(error)) {
	s.mu.Lock()
	if f, ok := s.inflight[hash]; ok {
		s.mu.Unlock()
		return false, func(ctx context.Context) (*Artifact, error) {
			select {
			case <-f.done:
				return f.art, f.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, nil, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[hash] = f
	s.mu.Unlock()

	finish := func(art *Artifact, err error) {
		s.mu.Lock()
		delete(s.inflight, hash)
		s.mu.Unlock()
		f.art, f.err = art, err
		close(f.done)
	}
	commit = func(a *Artifact, persist bool) error {
		var err error
		if persist {
			err = s.put(a)
		}
		// A store-write failure degrades to an uncached success: the
		// artifact still reaches this submission's waiters.
		finish(a, nil)
		return err
	}
	fail = func(err error) { finish(nil, err) }
	return true, nil, commit, fail
}

// Len counts stored artifacts (test and metrics helper).
func (s *Store) Len() int {
	if s.dir == "" {
		return 0
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}
