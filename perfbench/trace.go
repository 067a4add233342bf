package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/durable"
	"biasedres/internal/wire"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kClientFlush  spanKind = iota // benchmark: WireConn.Flush of one frame
	kClientHTTP                   // benchmark: one HTTP call (open loop: from its due time)
	kServerFrame                  // wire.Sink around a data node: IngestFrame
	kCoordFrame                   // wire.Sink around the coordinator: IngestFrame
	kHTTP                         // http.Handler around a node or the coordinator
	kJournalWrite                 // durable.File.Write on a journal (one applied batch)
	kJournalSync                  // durable.File.Sync on a journal
	kRotate                       // durable.FS.Create of a stream's next journal (instant)
	kPublish                      // durable.FS.Rename of a checkpoint into place (instant)
	kCkptWrite                    // durable.File.Write on a checkpoint temp file
)

var kindNames = [...]string{"client.flush", "client.http", "server.ingest_frame", "federation.ingest_frame",
	"http", "durable.journal_write", "durable.journal_sync", "durable.rotate", "durable.publish", "durable.checkpoint_write"}

// HTTP route classes recorded on kHTTP and kClientHTTP spans.
const (
	rOther uint8 = iota
	rIngest
	rStats
	rMetrics
	rAccum
	rRange
	rCount
	rAverage
	rClassdist
	rSelectivity
	rQuantile
)

var routeNames = [...]string{"other", "ingest", "stats", "metrics", "accum", "range",
	"count", "average", "classdist", "selectivity", "quantile"}

// queryRoutes are the route classes of the query mix, in metric order.
var queryRoutes = []uint8{rCount, rAverage, rClassdist, rSelectivity, rQuantile, rRange}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's base.
type span struct {
	start, end int64
	req        uint64 // X-Request-Id for HTTP spans
	fp, fp2    uint64 // fingerprints of a frame's first and second point
	n          int64  // points (frames), bytes (durable) or pending points (ingest acks)
	stream     int16
	kind       spanKind
	node       int8
	route      uint8
}

func (s span) iv() interval { return interval{s.start, s.end} }

// tracer keeps spans in memory while on is set; they are written out
// when the run ends.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	names []string // stream ids index this list

	mu    sync.Mutex
	spans []span
}

func newTracer(names []string) *tracer {
	return &tracer{base: time.Now(), names: names, spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// streamID maps a stream name to its index in names (-1 if unknown)
// without allocating.
func streamID(names []string, b []byte) int16 {
	for i, n := range names {
		if n == string(b) {
			return int16(i)
		}
	}
	return -1
}

// byKind returns the recorded spans of kind k (optionally only node n ≥ 0),
// sorted by start.
func (t *tracer) byKind(k spanKind, node int8) []span {
	var out []span
	for _, s := range t.spans {
		if s.kind == k && (node < 0 || s.node == node) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// link is how a span was attached to its parent in the trace output.
type link struct {
	child, parent int
	inferred      bool
}

// write dumps every span plus the computed parent links as gzipped JSON
// lines.
func (t *tracer) write(path string, links []link) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	parent := make(map[int]link, len(links))
	for _, l := range links {
		parent[l.child] = l
	}
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		rec := map[string]any{"id": i, "name": kindNames[s.kind], "start_ns": s.start, "end_ns": s.end, "node": s.node}
		if s.req != 0 {
			rec["req"] = s.req
		}
		if s.stream >= 0 && int(s.stream) < len(t.names) {
			rec["stream"] = t.names[s.stream]
		}
		if s.kind == kHTTP || s.kind == kClientHTTP {
			rec["route"] = routeNames[s.route]
		}
		if s.n != 0 {
			rec["n"] = s.n
		}
		if l, ok := parent[i]; ok {
			rec["parent"] = l.parent
			rec["link"] = "exact"
			if l.inferred {
				rec["link"] = "inferred"
			}
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sinkTap wraps a wire.Sink and records one span per frame.
type sinkTap struct {
	inner wire.Sink
	tr    *tracer
	kind  spanKind
	node  int8
}

func (s *sinkTap) IngestFrame(f *wire.Frame) wire.Reply {
	if !s.tr.on.Load() {
		return s.inner.IngestFrame(f)
	}
	start := s.tr.now()
	r := s.inner.IngestFrame(f)
	sp := span{start: start, end: s.tr.now(), kind: s.kind, node: s.node,
		stream: streamID(s.tr.names, f.Name), n: int64(f.Count)}
	if f.Count > 0 {
		sp.fp = fingerprint(f.Values[:f.Dim])
	}
	if f.Count > 1 {
		sp.fp2 = fingerprint(f.Values[f.Dim : 2*f.Dim])
	}
	s.tr.add(sp)
	return r
}

// routeOf classifies a request without allocating.
func routeOf(r *http.Request) uint8 {
	p, q := r.URL.Path, r.URL.RawQuery
	switch {
	case strings.HasSuffix(p, "/points"):
		return rIngest
	case p == "/metrics":
		return rMetrics
	case strings.HasSuffix(p, "/accum"):
		return rAccum
	case strings.HasSuffix(p, "/range"):
		return rRange
	case strings.HasSuffix(p, "/query"):
		for _, rt := range []uint8{rCount, rAverage, rClassdist, rSelectivity, rQuantile} {
			if strings.Contains(q, "type="+routeNames[rt]) {
				return rt
			}
		}
	case strings.HasPrefix(p, "/streams/") && strings.Count(p, "/") == 2 && r.Method == http.MethodGet:
		return rStats
	}
	return rOther
}

// httpTap wraps a node's or the coordinator's handler and records one
// span per request, keyed by the X-Request-Id the benchmark stamps.
type httpTap struct {
	inner http.Handler
	tr    *tracer
	node  int8
}

func (h *httpTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.inner.ServeHTTP(w, r)
	sp := span{start: start, end: h.tr.now(), kind: kHTTP, node: h.node, route: routeOf(r), stream: -1}
	sp.req, _ = strconv.ParseUint(r.Header.Get("X-Request-Id"), 10, 64)
	if sp.route == rIngest {
		// The 202 ack reports the stream's backlog of accepted points.
		sp.n, _ = strconv.ParseInt(w.Header().Get("X-Biasedres-Pending-Points"), 10, 64)
	}
	h.tr.add(sp)
}

// fsTap wraps the production filesystem and times journal and
// checkpoint I/O.
type fsTap struct {
	durable.OSFS
	tr *tracer
}

// pathStream extracts the stream id from a data-dir file name
// "st-<escaped name>.<seq>.<kind>[.tmp]".
func (f fsTap) pathStream(path string) int16 {
	base := strings.TrimSuffix(filepath.Base(path), ".tmp")
	base = strings.TrimPrefix(base, "st-")
	for range 2 {
		if i := strings.LastIndexByte(base, '.'); i >= 0 {
			base = base[:i]
		}
	}
	name, err := url.PathUnescape(base)
	if err != nil {
		return -1
	}
	return streamID(f.tr.names, []byte(name))
}

func (f fsTap) Create(path string) (durable.File, error) {
	file, err := f.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".journal"):
		id := f.pathStream(path)
		if f.tr.on.Load() {
			now := f.tr.now()
			f.tr.add(span{start: now, end: now, kind: kRotate, stream: id})
		}
		return &fileTap{File: file, tr: f.tr, stream: id, journal: true}, nil
	case strings.HasSuffix(path, ".ckpt.tmp"):
		return &fileTap{File: file, tr: f.tr, stream: f.pathStream(path)}, nil
	}
	return file, nil
}

func (f fsTap) Rename(oldpath, newpath string) error {
	err := f.OSFS.Rename(oldpath, newpath)
	if f.tr.on.Load() && strings.HasSuffix(newpath, ".ckpt") {
		now := f.tr.now()
		f.tr.add(span{start: now, end: now, kind: kPublish, stream: f.pathStream(newpath)})
	}
	return err
}

// fileTap times writes and syncs on one journal or checkpoint file. The
// store serializes calls on one file, so the header flag needs no lock.
type fileTap struct {
	durable.File
	tr      *tracer
	stream  int16
	journal bool
	header  bool // the journal header has been written
}

func (f *fileTap) Write(b []byte) (int, error) {
	if !f.tr.on.Load() {
		f.header = true
		return f.File.Write(b)
	}
	start := f.tr.now()
	n, err := f.File.Write(b)
	kind := kCkptWrite
	if f.journal {
		kind = kJournalWrite
		if !f.header {
			// The first write of a journal is its header, not a batch.
			f.header = true
			return n, err
		}
	}
	f.tr.add(span{start: start, end: f.tr.now(), kind: kind, stream: f.stream, n: int64(n)})
	return n, err
}

func (f *fileTap) Sync() error {
	if !f.journal || !f.tr.on.Load() {
		return f.File.Sync()
	}
	start := f.tr.now()
	err := f.File.Sync()
	f.tr.add(span{start: start, end: f.tr.now(), kind: kJournalSync, stream: f.stream})
	return err
}
