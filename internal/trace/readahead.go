// Windowed readahead for FileSource: a double-buffered background
// prefetcher that keeps the next file window in flight while the
// decoder chews on the current one, overlapping disk I/O with block
// decode.
package trace

import (
	"io"
	"os"
	"sync"
)

// DefaultReadaheadBytes is FileSource's prefetch window. Two windows
// are in flight at a time, so the steady-state buffer cost of a
// streamed replay is twice this.
const DefaultReadaheadBytes = 512 << 10

// fileSource is FileSource's StreamSource: the file at the path, read
// through the prefetcher.
type fileSource string

func (p fileSource) Open() (*Stream, error) {
	rc, err := p.openRawAt(0)
	if err != nil {
		return nil, err
	}
	s, err := OpenStream(rc)
	if err != nil {
		rc.Close()
		return nil, err
	}
	s.closer = rc
	return s, nil
}

// openRawAt opens the byte stream positioned at off: Open reads from
// the start, SharedSource from past the header.
func (p fileSource) openRawAt(off int64) (io.ReadCloser, error) {
	f, err := os.Open(string(p))
	if err != nil {
		return nil, err
	}
	if off != 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	return newPrefetchReader(f, DefaultReadaheadBytes), nil
}

// chunk is one prefetched window handed from the producer goroutine to
// the reader; err (delivered after the bytes) ends the stream.
type chunk struct {
	b   []byte
	err error
}

// prefetchReader overlaps file I/O with consumption: a producer
// goroutine fills one window buffer while the consumer drains the
// other (double buffering — two windows bound the memory cost). The
// producer parks as soon as both windows are in flight, so a slow
// consumer never grows the footprint.
type prefetchReader struct {
	src    io.ReadCloser
	filled chan chunk
	free   chan []byte
	stop   chan struct{}
	wg     sync.WaitGroup

	cur     []byte // unread remainder of the current window
	curBuf  []byte // current window's backing buffer (returned to free)
	err     error  // sticky, delivered once buffered windows drain
	stopped bool
}

func newPrefetchReader(src io.ReadCloser, window int) *prefetchReader {
	p := &prefetchReader{
		src:    src,
		filled: make(chan chunk, 2),
		free:   make(chan []byte, 2),
		stop:   make(chan struct{}),
	}
	p.free <- make([]byte, window)
	p.free <- make([]byte, window)
	p.wg.Add(1)
	go p.produce()
	return p
}

// produce fills free window buffers from the file until EOF, error, or
// Close. Every send also selects on stop, so Close never deadlocks
// against a parked producer.
func (p *prefetchReader) produce() {
	defer p.wg.Done()
	for {
		var buf []byte
		select {
		case buf = <-p.free:
		case <-p.stop:
			return
		}
		n, err := io.ReadFull(p.src, buf)
		if n > 0 {
			select {
			case p.filled <- chunk{b: buf[:n]}:
			case <-p.stop:
				return
			}
		} else {
			// Window unused: recycle it so the channel accounting
			// stays balanced (nobody will return this one).
			p.free <- buf
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				err = io.EOF
			}
			select {
			case p.filled <- chunk{err: err}:
			case <-p.stop:
			}
			return
		}
	}
}

func (p *prefetchReader) Read(b []byte) (int, error) {
	for len(p.cur) == 0 {
		if p.err != nil {
			return 0, p.err
		}
		if p.curBuf != nil {
			p.free <- p.curBuf
			p.curBuf = nil
		}
		c := <-p.filled
		if c.err != nil {
			p.err = c.err
			return 0, p.err
		}
		p.cur, p.curBuf = c.b, c.b[:cap(c.b)]
	}
	n := copy(b, p.cur)
	p.cur = p.cur[n:]
	return n, nil
}

// Close stops the producer and closes the underlying file.
func (p *prefetchReader) Close() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	close(p.stop)
	p.wg.Wait()
	return p.src.Close()
}
