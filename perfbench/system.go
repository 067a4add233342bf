package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/durable"
	"biasedres/internal/federation"
	"biasedres/internal/server"
	"biasedres/internal/wire"
)

// The daemon is assembled exactly as cmd/reservoird assembles it, from
// the same public constructors and with its default flag values, except
// that the log level is warn (reservoird -log-level warn): at info every
// request would be logged to standard error.

// reservoird defaults.
const (
	defaultQueue        = 64
	defaultMaxBody      = 8 << 20
	defaultMaxFrame     = 64 << 20
	defaultCkptInterval = 10 * time.Second
	defaultCkptMinOps   = 1
	defaultSyncInterval = 100 * time.Millisecond
)

func warnLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// nodeConfig selects the reservoird flags a data node runs with.
type nodeConfig struct {
	seed    uint64
	workers int    // -ingest-workers (0 = sync lane)
	dataDir string // -data-dir ("" = memory only)
}

// node is one data node: server, optional durable store, wire listener
// and HTTP server on loopback.
type node struct {
	api      *server.Server
	store    *durable.Store
	wl       *wire.Listener
	hs       *http.Server
	url      string
	wireAddr string
	wg       sync.WaitGroup
}

// serve runs the node's HTTP and wire listeners on fresh loopback ports.
func serveBoth(hs *http.Server, wl *wire.Listener, wg *sync.WaitGroup) (httpURL, wireAddr string, err error) {
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		return "", "", err
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := hs.Serve(hln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: http serve:", err)
		}
	}()
	go func() {
		defer wg.Done()
		_ = wl.Serve(wln) // returns once the listener is closed
	}()
	return "http://" + hln.Addr().String(), wln.Addr().String(), nil
}

// startNode builds and serves one data node. A non-nil tracer wraps the
// node's wire sink, HTTP handler and filesystem.
func startNode(cfg nodeConfig, tr *tracer, id int8) (*node, error) {
	log := warnLogger()
	opts := []server.Option{server.WithLogger(log), server.WithMaxBodyBytes(defaultMaxBody),
		server.WithDefaultPolicy("variable")}
	if cfg.workers > 0 {
		opts = append(opts, server.WithIngestShards(cfg.workers, defaultQueue))
	}
	n := &node{}
	if cfg.dataDir != "" {
		var fsys durable.FS = durable.OSFS{}
		if tr != nil {
			fsys = fsTap{tr: tr}
		}
		store, err := durable.Open(fsys, cfg.dataDir)
		if err != nil {
			return nil, err
		}
		n.store = store
		opts = append(opts, server.WithDurability(store, server.DurabilityConfig{
			CheckpointInterval:  defaultCkptInterval,
			CheckpointMinOps:    defaultCkptMinOps,
			JournalSyncInterval: defaultSyncInterval,
		}))
	}
	n.api = server.New(cfg.seed, opts...)
	var sink wire.Sink = n.api
	var handler http.Handler = n.api
	if tr != nil {
		sink = &sinkTap{inner: n.api, tr: tr, kind: kServerFrame, node: id}
		handler = &httpTap{inner: n.api, tr: tr, node: id}
	}
	n.wl = wire.NewListener(sink, wire.WithLogger(log), wire.WithMetrics(n.api.Metrics()),
		wire.WithMaxFrameBytes(defaultMaxFrame))
	n.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	var err error
	n.url, n.wireAddr, err = serveBoth(n.hs, n.wl, &n.wg)
	if err != nil {
		n.api.Close()
		return nil, err
	}
	n.api.SetWireAddr(n.wireAddr)
	return n, nil
}

// close shuts the node down in reservoird's order: HTTP, then the wire
// listener, then the server's drain and final checkpoint.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx)
	_ = n.wl.Close()
	n.api.Close()
	n.wg.Wait()
}

// coordinator is a federation coordinator with its own wire sink.
type coordinator struct {
	co       *federation.Coordinator
	wl       *wire.Listener
	hs       *http.Server
	url      string
	wireAddr string
	wg       sync.WaitGroup
}

func startCoordinator(peers []string, replication, shards int, tr *tracer, id int8) (*coordinator, error) {
	log := warnLogger()
	co, err := federation.New(peers, federation.Config{Replication: replication, Shards: shards},
		federation.WithLogger(log))
	if err != nil {
		return nil, err
	}
	c := &coordinator{co: co}
	var sink wire.Sink = co
	var handler http.Handler = co
	if tr != nil {
		sink = &sinkTap{inner: co, tr: tr, kind: kCoordFrame, node: id}
		handler = &httpTap{inner: co, tr: tr, node: id}
	}
	c.wl = wire.NewListener(sink, wire.WithLogger(log), wire.WithMetrics(co.Metrics()),
		wire.WithMaxFrameBytes(defaultMaxFrame))
	c.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	c.url, c.wireAddr, err = serveBoth(c.hs, c.wl, &c.wg)
	if err != nil {
		co.Close()
		return nil, err
	}
	return c, nil
}

func (c *coordinator) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = c.hs.Shutdown(ctx)
	_ = c.wl.Close()
	c.co.Close()
	c.wg.Wait()
}

// stampRT stamps every request with the X-Request-Id its caller set and,
// for coordinator connections, flags answers marked partial. RoundTrip
// runs on the calling goroutine, so id needs no synchronization as long
// as one goroutine owns the connection.
type stampRT struct {
	base         http.RoundTripper
	id           uint64
	checkPartial bool
	partial      bool // the last response carried "partial":true
}

func (s *stampRT) RoundTrip(r *http.Request) (*http.Response, error) {
	r2 := r.Clone(r.Context())
	r2.Header.Set("X-Request-Id", strconv.FormatUint(s.id, 10))
	resp, err := s.base.RoundTrip(r2)
	if err != nil || !s.checkPartial {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	s.partial = bytes.Contains(body, []byte(`"partial":true`))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// conn is one client connection: an internal/client Client over its own
// single-connection transport.
type conn struct {
	*client.Client
	hc   *http.Client
	rt   *stampRT
	tp   *http.Transport
	base string
	next uint64
}

func newConn(base string, checkPartial bool) *conn {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	rt := &stampRT{base: tp, checkPartial: checkPartial}
	hc := &http.Client{Transport: rt, Timeout: 30 * time.Second}
	c, err := client.New(base, client.WithHTTPClient(hc))
	if err != nil {
		panic(err) // base comes from a listener this process opened
	}
	return &conn{Client: c, hc: hc, rt: rt, tp: tp, base: base}
}

// stamp assigns the next request id to the connection's next call.
func (c *conn) stamp(reqBase uint64) uint64 {
	c.next++
	c.rt.id = reqBase + c.next
	return c.rt.id
}

func (c *conn) close() { c.tp.CloseIdleConnections() }

// selectivity runs GET /streams/{name}/query?type=selectivity, which
// internal/client has no call for, over the connection's own client.
func (c *conn) selectivity(name string, h uint64, dims string, lo, hi string) (float64, error) {
	u := c.base + "/streams/" + name + "/query?type=selectivity&h=" + strconv.FormatUint(h, 10) +
		"&dims=" + dims + "&lo=" + lo + "&hi=" + hi
	resp, err := c.hc.Get(u)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, &client.APIError{StatusCode: resp.StatusCode, Message: string(body)}
	}
	var out struct {
		Selectivity *float64 `json:"selectivity"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Selectivity == nil {
		return 0, fmt.Errorf("selectivity: bad reply %q", body)
	}
	return *out.Selectivity, nil
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(c *conn, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		err := c.ReadyzContext(context.Background())
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v: %w", within, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitProcessed polls a stream's stats until processed reaches want.
func waitProcessed(c *conn, name string, want uint64, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		st, err := c.Stats(name)
		if err == nil && st.Processed >= want {
			return nil
		}
		if time.Now().After(deadline) {
			got := uint64(0)
			if st != nil {
				got = st.Processed
			}
			return fmt.Errorf("stream %s: processed %d, want %d after %v (err %v)", name, got, want, within, err)
		}
		time.Sleep(time.Millisecond)
	}
}
