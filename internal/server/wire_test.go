package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/wire"
)

// wireTestFrame packs n points of the given dim into a frame; values are
// a deterministic function of position so HTTP and wire batches match.
func wireTestFrame(n, dim int) *wire.Frame {
	f := &wire.Frame{Dim: dim, Count: n}
	f.Values = make([]float64, n*dim)
	for i := range f.Values {
		f.Values[i] = float64(i%17) * 0.25
	}
	f.Labels = make([]int32, n)
	for i := range f.Labels {
		f.Labels[i] = int32(i % 3)
	}
	return f
}

// wireHTTPPoints is the same batch in the JSON ingest shape.
func wireHTTPPoints(n, dim int) []IngestPoint {
	pts := make([]IngestPoint, n)
	for i := range pts {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = float64((i*dim+d)%17) * 0.25
		}
		label := i % 3
		pts[i] = IngestPoint{Values: vals, Label: &label}
	}
	return pts
}

// snapshotBytes fetches a stream's binary checkpoint over the HTTP API.
func snapshotBytes(t *testing.T, srv *Server, name string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/streams/"+name+"/snapshot", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d body %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func createOn(t *testing.T, srv *Server, name string, req CreateRequest) {
	t.Helper()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	createStream(t, ts.URL, name, req)
}

// TestWireHTTPEquivalence is the acceptance equivalence test: the same
// batch pushed once through JSON HTTP and once through the binary wire
// path (end to end: client.WireConn → TCP → wire.Listener → IngestFrame)
// must leave byte-identical sampler state, proven on the marshaled
// checkpoint. Both servers share a seed, so any divergence in point
// content, ordering or RNG consumption shows up in the bytes.
func TestWireHTTPEquivalence(t *testing.T) {
	const points, dim = 300, 2
	cfg := CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 64}

	httpSrv := New(42)
	createOn(t, httpSrv, "s", cfg)
	ts := httptest.NewServer(httpSrv)
	defer ts.Close()
	ingest(t, ts.URL, "s", wireHTTPPoints(points, dim))

	wireSrv := New(42)
	createOn(t, wireSrv, "s", cfg)
	wl, addr := startWireListener(t, wireSrv)
	defer wl.Close()
	wc, err := client.DialWire(addr, client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	var cpts []client.Point
	for _, ip := range wireHTTPPoints(points, dim) {
		cpts = append(cpts, client.Point{Values: ip.Values, Label: ip.Label})
	}
	if err := wc.Push("s", cpts); err != nil {
		t.Fatalf("wire push: %v", err)
	}

	httpCkpt := snapshotBytes(t, httpSrv, "s")
	wireCkpt := snapshotBytes(t, wireSrv, "s")
	if string(httpCkpt) != string(wireCkpt) {
		t.Fatalf("checkpoints diverge: HTTP %d bytes, wire %d bytes", len(httpCkpt), len(wireCkpt))
	}
	// Both paths must also agree on the arrival cursor.
	httpSrv.mu.RLock()
	hms := httpSrv.streams["s"]
	httpSrv.mu.RUnlock()
	wireSrv.mu.RLock()
	wms := wireSrv.streams["s"]
	wireSrv.mu.RUnlock()
	if hms.next != wms.next || hms.dim != wms.dim {
		t.Fatalf("cursors diverge: HTTP (next=%d dim=%d), wire (next=%d dim=%d)",
			hms.next, hms.dim, wms.next, wms.dim)
	}
}

// startWireListener serves srv's IngestFrame on a loopback TCP listener.
func startWireListener(t testing.TB, srv *Server) (*wire.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := wire.NewListener(srv, wire.WithMetrics(srv.Metrics()))
	go wl.Serve(ln)
	return wl, ln.Addr().String()
}

// TestWireIngestValidation: the error replies are authoritative and
// consume nothing.
func TestWireIngestValidation(t *testing.T) {
	srv := New(1)
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 32})

	frameFor := func(mut func(*wire.Frame)) *wire.Frame {
		f := wireTestFrame(4, 2)
		mut(f)
		return f
	}
	cases := []struct {
		name string
		f    *wire.Frame
		want string
	}{
		{"unknown-stream", func() *wire.Frame {
			f := wireTestFrame(4, 2)
			f.Name = []byte("ghost")
			return f
		}(), "not found"},
		{"non-monotone-indices", frameFor(func(f *wire.Frame) {
			f.Name = []byte("s")
			f.Indices = []uint64{1, 3, 2, 4}
		}), "does not advance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := srv.IngestFrame(tc.f)
			if r.Status != wire.StatusError || !strings.Contains(r.Msg, tc.want) {
				t.Fatalf("reply = %+v, want error containing %q", r, tc.want)
			}
		})
	}

	// Commit dim via a good frame, then mismatch.
	good := wireTestFrame(4, 2)
	good.Name = []byte("s")
	if r := srv.IngestFrame(good); r.Status != wire.StatusOK {
		t.Fatalf("good frame rejected: %+v", r)
	}
	bad := wireTestFrame(4, 3)
	bad.Name = []byte("s")
	if r := srv.IngestFrame(bad); r.Status != wire.StatusError || !strings.Contains(r.Msg, "dim") {
		t.Fatalf("dim mismatch reply = %+v", r)
	}
	// Nothing from the rejected frames may have been consumed.
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	ms.qmu.Lock()
	next := ms.next
	ms.qmu.Unlock()
	if next != 4 {
		t.Fatalf("next = %d after one accepted frame of 4 points", next)
	}
	ms.mu.Lock()
	processed := ms.sampler.Processed()
	ms.mu.Unlock()
	if processed != 4 {
		t.Fatalf("sampler processed %d, want 4", processed)
	}
}

// TestWireIngestExplicitIndices: a frame carrying indices is accepted
// only when it continues the stream exactly. A replay and a gap are
// refused with distinct errors and consume nothing, and the accepted
// points are visible to the Horvitz–Thompson count: a frame that skipped
// ahead would leave residents indexed past the sampler's t with p=0.
func TestWireIngestExplicitIndices(t *testing.T) {
	srv := New(1)
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 32})
	frame := func(idx ...uint64) *wire.Frame {
		f := wireTestFrame(len(idx), 1)
		f.Name = []byte("s")
		f.Indices = idx
		return f
	}
	if r := srv.IngestFrame(frame(10, 11, 12)); r.Status != wire.StatusError || !strings.Contains(r.Msg, "gap") {
		t.Fatalf("frame skipping ahead of a fresh stream: reply %+v, want gap error", r)
	}
	if r := srv.IngestFrame(frame(1, 2, 3)); r.Status != wire.StatusOK {
		t.Fatalf("indexed frame rejected: %+v", r)
	}
	if r := srv.IngestFrame(frame(1, 2, 3)); r.Status != wire.StatusError || !strings.Contains(r.Msg, "replay") {
		t.Fatalf("replayed frame: reply %+v, want replay error", r)
	}
	if r := srv.IngestFrame(frame(3, 4)); r.Status != wire.StatusError || !strings.Contains(r.Msg, "replay") {
		t.Fatalf("overlapping frame: reply %+v, want replay error", r)
	}
	if r := srv.IngestFrame(frame(5, 6)); r.Status != wire.StatusError || !strings.Contains(r.Msg, "gap") {
		t.Fatalf("frame leaving a gap: reply %+v, want gap error", r)
	}
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	ms.qmu.Lock()
	next := ms.next
	ms.qmu.Unlock()
	if next != 3 {
		t.Fatalf("next = %d, want 3", next)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, body := do(t, http.MethodGet, ts.URL+"/streams/s/query?type=count&h=0", nil)
	if est, _ := body["estimate"].(float64); est != 3 {
		t.Fatalf("HT count of the accepted frame = %v, want 3 (body %v)", est, body)
	}
}

// TestWireIngestBackpressure: with the async queue full, IngestFrame
// answers NACK and consumes nothing; once the queue drains, the resend
// lands. The worker is pinned by holding the sampler lock.
func TestWireIngestBackpressure(t *testing.T) {
	srv := New(1, WithIngestShards(1, 1))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 32})
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()

	ms.mu.Lock() // pin the shard worker mid-apply
	var acked, nacked int
	var nack wire.Reply
	for i := 0; i < 8 && nacked == 0; i++ {
		f := wireTestFrame(4, 2)
		f.Name = []byte("s")
		switch r := srv.IngestFrame(f); r.Status {
		case wire.StatusOK:
			acked++
		case wire.StatusBackpressure:
			nacked++
			nack = r
		default:
			ms.mu.Unlock()
			t.Fatalf("unexpected reply %+v", r)
		}
	}
	ms.mu.Unlock()
	if nacked == 0 {
		t.Fatal("queue of 1 batch never backpressured")
	}
	if nack.RetryMS == 0 {
		t.Fatalf("NACK carries no retry hint: %+v", nack)
	}
	// Drain, then verify exactly the ACKed points were applied.
	deadline := time.Now().Add(5 * time.Second)
	for ms.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	ms.mu.Lock()
	processed := ms.sampler.Processed()
	ms.mu.Unlock()
	if processed != uint64(4*acked) {
		t.Fatalf("sampler processed %d, want %d (4 × %d ACKed frames)", processed, 4*acked, acked)
	}
	// And the resend after drain succeeds.
	f := wireTestFrame(4, 2)
	f.Name = []byte("s")
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("post-drain resend rejected: %+v", r)
	}
}

// TestWireIngestClosedStream: frames for a deleted stream get an
// authoritative error, mirroring the HTTP path's 503-on-shutdown.
func TestWireIngestClosedStream(t *testing.T) {
	srv := New(1, WithIngestShards(1, 4))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 8})
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	closeShard(ms)
	f := wireTestFrame(2, 1)
	f.Name = []byte("s")
	if r := srv.IngestFrame(f); r.Status != wire.StatusError || !strings.Contains(r.Msg, "shutting down") {
		t.Fatalf("reply = %+v, want shutting-down error", r)
	}
}

// TestWireIngestTimeDecay: wire frames reach time-decay streams through
// the synchronous path, advancing the decay clock one unit per point.
func TestWireIngestTimeDecay(t *testing.T) {
	srv := New(1, WithIngestShards(2, 4))
	defer srv.Close()
	createOn(t, srv, "td", CreateRequest{Policy: "timedecay", Lambda: 0.01, Capacity: 16})
	f := wireTestFrame(5, 2)
	f.Name = []byte("td")
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("time-decay frame rejected: %+v", r)
	}
	srv.mu.RLock()
	ms := srv.streams["td"]
	srv.mu.RUnlock()
	ms.mu.Lock()
	processed := ms.sampler.Processed()
	ms.mu.Unlock()
	if processed != 5 {
		t.Fatalf("processed = %d, want 5", processed)
	}
}

// TestWireEndToEndAsync drives the full stack against an async server:
// WireConn batches, the listener decodes, frames ride the shard queue,
// and the pending gauge drains to zero.
func TestWireEndToEndAsync(t *testing.T) {
	srv := New(1, WithIngestShards(2, 8))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 128})
	wl, addr := startWireListener(t, srv)
	defer wl.Close()

	wc, err := client.DialWire(addr, client.WireConnConfig{FlushSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const total = 500
	for i := 0; i < total; i++ {
		if err := wc.Add("s", client.Point{Values: []float64{float64(i), 1}}); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if err := wc.Close(); err != nil { // flushes the remainder
		t.Fatal(err)
	}
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	deadline := time.Now().Add(5 * time.Second)
	for ms.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pending points did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	ms.mu.Lock()
	processed := ms.sampler.Processed()
	ms.mu.Unlock()
	if processed != total {
		t.Fatalf("processed = %d, want %d", processed, total)
	}
}

// TestWireConnReconnect: a server that drops the connection mid-exchange
// does not lose the frame — the client redials and resends.
func TestWireConnReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// First connection: read the frame, drop the connection without a
	// reply. Second connection: serve properly against a real server.
	srv := New(1)
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 16})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		io.ReadFull(conn, make([]byte, wire.HeaderLen)) // swallow the header
		conn.Close()                                    // transport failure before any reply
		wl := wire.NewListener(srv)
		wl.Serve(ln)
	}()

	wc, err := client.DialWire(ln.Addr().String(), client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	err = wc.Push("s", []client.Point{{Values: []float64{1}}, {Values: []float64{2}}})
	if err != nil {
		t.Fatalf("push across reconnect: %v", err)
	}
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	ms.mu.Lock()
	processed := ms.sampler.Processed()
	ms.mu.Unlock()
	if processed != 2 {
		t.Fatalf("processed = %d, want 2", processed)
	}
}

// TestWireConnBackpressureRetry: the client waits out NACKs and the
// frame eventually lands exactly once.
func TestWireConnBackpressureRetry(t *testing.T) {
	srv := New(1, WithIngestShards(1, 1))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 16})
	wl, addr := startWireListener(t, srv)
	defer wl.Close()

	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()

	wc, err := client.DialWire(addr, client.WireConnConfig{MaxRetries: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	// Wedge the worker long enough that the queue fills and at least one
	// push is NACKed, then release.
	ms.mu.Lock()
	seed := []client.Point{{Values: []float64{0}}}
	if err := wc.Push("s", seed); err != nil { // worker picks this up, blocks on mu
		ms.mu.Unlock()
		t.Fatal(err)
	}
	if err := wc.Push("s", seed); err != nil { // fills the queue
		ms.mu.Unlock()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wc.Push("s", seed) }() // must NACK until the lock lifts
	time.Sleep(50 * time.Millisecond)
	ms.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("backpressured push failed: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ms.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	ms.mu.Lock()
	processed := ms.sampler.Processed()
	ms.mu.Unlock()
	if processed != 3 {
		t.Fatalf("processed = %d, want exactly 3 (no duplicates, no drops)", processed)
	}
}

// TestWireConnServerError: an authoritative rejection surfaces as
// *client.WireError without retries.
func TestWireConnServerError(t *testing.T) {
	srv := New(1)
	wl, addr := startWireListener(t, srv)
	defer wl.Close()
	wc, err := client.DialWire(addr, client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	err = wc.Push("ghost", []client.Point{{Values: []float64{1}}})
	var werr *client.WireError
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v, want not-found WireError", err)
	}
	if !errors.As(err, &werr) {
		t.Fatalf("err type = %T, want *client.WireError", err)
	}
}
