// SharedSource — an interning layer over a StreamSource.
//
// Opening a v3 stream decodes the header frame: program metadata plus
// the full object table, which is the dominant allocation cost of a
// streamed replay (every benchmark table holds thousands of interned
// strings). A SharedSource decodes that header exactly once and hands
// every subsequent Open a Stream that shares the same immutable table
// and header totals, positioned directly at the first block — repeated
// replays of one artifact (exp's per-(benchmark,scale) cache, serve's
// verification pass and replay retries) skip the whole header decode.
//
// The shared object table must be treated as immutable by every
// consumer; the replay engines only ever read it.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"edb/internal/fault"
	"edb/internal/objects"
)

// sectionOpener is implemented by sources that can open their raw byte
// stream at an offset — what SharedSource needs to skip the header.
type sectionOpener interface {
	openRawAt(off int64) (io.ReadCloser, error)
}

// SharedSource wraps a StreamSource, decoding the header once and
// sharing the immutable object table across all Opens. It is safe for
// concurrent use.
type SharedSource struct {
	src StreamSource

	mu     sync.Mutex
	primed bool

	program    string
	baseCycles uint64
	instret    uint64
	objects    *objects.Table
	numBlocks  int
	numEvents  uint64
	numWrites  uint64
	headerEnd  int64
}

// NewSharedSource returns a SharedSource over src. The header is
// decoded on the first Open.
func NewSharedSource(src StreamSource) *SharedSource {
	if ss, ok := src.(*SharedSource); ok {
		return ss
	}
	return &SharedSource{src: src}
}

// Open returns an independent Stream over the source. The first call
// decodes the header; later calls reuse it and start at the first
// block. When the underlying source cannot seek past the header it
// falls back to a full open (still correct, just not interned).
func (ss *SharedSource) Open() (*Stream, error) {
	ss.mu.Lock()
	if !ss.primed {
		defer ss.mu.Unlock()
		s, err := ss.src.Open()
		if err != nil {
			return nil, err
		}
		ss.program, ss.baseCycles, ss.instret = s.Program, s.BaseCycles, s.Instret
		ss.objects = s.Objects
		ss.numBlocks, ss.numEvents, ss.numWrites = s.NumBlocks, s.NumEvents, s.NumWrites
		ss.headerEnd = s.d.off
		ss.primed = true
		return s, nil
	}
	ss.mu.Unlock()

	so, ok := ss.src.(sectionOpener)
	if !ok {
		return ss.src.Open()
	}
	// Keep chaos parity with OpenStream: a seeded read fault fires on
	// the interned path too.
	if err := fault.Inject(fault.SiteTraceRead, ""); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	rc, err := so.openRawAt(ss.headerEnd)
	if err != nil {
		return nil, err
	}
	return &Stream{
		Program:    ss.program,
		BaseCycles: ss.baseCycles,
		Instret:    ss.instret,
		Objects:    ss.objects,
		NumBlocks:  ss.numBlocks,
		NumEvents:  ss.numEvents,
		NumWrites:  ss.numWrites,
		d:          &decoder{r: bufio.NewReaderSize(rc, 1<<16), off: ss.headerEnd, remaining: -1},
		closer:     rc,
	}, nil
}
