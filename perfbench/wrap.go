package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// serverProbe wraps the server's http.Handler in the traced half: it times
// every read of a stream request body (server.body_wait_s) and every
// window the handler writes (server.write_ns, server.writes_per_window),
// and records one server.write span per window under that window's id.
type serverProbe struct {
	next http.Handler
	rec  *recorder

	bodyWait atomic.Int64 // ns blocked in request-body reads
	phase    atomic.Int32 // window id namespace of streams opened now

	mu      sync.Mutex
	writeNS []int64 // per window: Write calls plus the Flush that ends it
	writes  int     // Write calls behind those windows
}

func (p *serverProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/stream" {
		p.next.ServeHTTP(w, r)
		return
	}
	r.Body = &timedBody{ReadCloser: r.Body, wait: &p.bodyWait}
	tw := &timedWriter{ResponseWriter: w, probe: p, phase: int(p.phase.Load()), windows: make(map[string]uint64)}
	p.next.ServeHTTP(tw, r)
}

// timedBody counts the time the server spends blocked reading a stream body.
type timedBody struct {
	io.ReadCloser
	wait *atomic.Int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.wait.Add(int64(time.Since(t0)))
	return n, err
}

// timedWriter times one stream response's writes. The server writes each
// window with one or more Write calls and ends it with a Flush through
// http.ResponseController, so a Flush after writes closes one window.
// Flush, FlushError and Unwrap are kept: the server's write-stall deadline
// and full-duplex switch reach the connection through the controller.
type timedWriter struct {
	http.ResponseWriter
	probe *serverProbe
	phase int

	user    string            // first record's user in the current window
	windows map[string]uint64 // per user: windows written so far
	start   time.Time
	busy    time.Duration
	writes  int
}

func (w *timedWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := w.ResponseWriter.Write(b)
	if w.writes == 0 {
		w.start = t0
		w.user = firstUser(b)
	}
	w.busy += time.Since(t0)
	w.writes++
	return n, err
}

func (w *timedWriter) FlushError() error {
	t0 := time.Now()
	err := http.NewResponseController(w.ResponseWriter).Flush()
	end := time.Now()
	if w.writes > 0 {
		p := w.probe
		k := w.windows[w.user]
		w.windows[w.user] = k + 1
		p.mu.Lock()
		p.writeNS = append(p.writeNS, int64(w.busy+end.Sub(t0)))
		p.writes += w.writes
		p.mu.Unlock()
		p.rec.add("server.write", windowID(w.phase, w.user, k), p.rec.at(w.start), p.rec.at(end))
		w.writes, w.busy = 0, 0
	}
	return err
}

// Flush serves callers that use http.Flusher, which has no error result;
// http.ResponseController calls FlushError.
func (w *timedWriter) Flush() {
	_ = w.FlushError() //lppm:allow droppederr -- http.Flusher cannot report it; the next write fails the same way
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// firstUser extracts the user of the first NDJSON record in b, which
// starts with {"user":"…" in the trace codec's field order.
func firstUser(b []byte) string {
	const key = `"user":"`
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return ""
	}
	rest := b[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// timedFS is a journal.FS over the host filesystem that times every
// segment write and fsync: the journal layer's I/O as the journal sees it.
// It is passed via JournalConfig.FS in the traced half only.
type timedFS struct {
	journal.OSFS
	mu      sync.Mutex
	writeNS []int64
	syncNS  []int64
	bytes   int64
}

func (fs *timedFS) Create(name string) (journal.File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

// reset forgets what was timed so far (the set-up's snapshot writes).
func (fs *timedFS) reset() {
	fs.mu.Lock()
	fs.writeNS, fs.syncNS, fs.bytes = nil, nil, 0
	fs.mu.Unlock()
}

type timedFile struct {
	journal.File
	fs *timedFS
}

func (f *timedFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(b)
	d := int64(time.Since(t0))
	f.fs.mu.Lock()
	f.fs.writeNS = append(f.fs.writeNS, d)
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t0))
	f.fs.mu.Lock()
	f.fs.syncNS = append(f.fs.syncNS, d)
	f.fs.mu.Unlock()
	return err
}
