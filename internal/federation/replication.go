package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/query"
	"biasedres/internal/wire"
)

// Replication: a stream created through the coordinator is split into
// Shards round-robin sub-streams, and every shard is written to
// Replication placement-chosen peers (internal/federation/placement.go).
// The ingest fan-out acks once every shard landed on at least one
// replica. A read uses exactly one answer per shard (readShard), so the
// merged Horvitz–Thompson estimate counts every point once: from a
// single vouched replica in the steady state, else from the most
// advanced replica by stream position. Killing any single node (with
// Replication ≥ 2) therefore leaves queries whole: partial:false,
// estimates unchanged.

// fedStream is one coordinator-managed stream.
type fedStream struct {
	shards   int
	replicas int

	mu     sync.Mutex
	cfg    client.StreamConfig
	hasCfg bool // cfg known (created through this coordinator), enabling 404 backfill

	// track has one entry per shard for streams created through this
	// coordinator; adopted streams have none and read every replica.
	track []shardTrack

	rr atomic.Uint64 // round-robin cursor for shard assignment
}

// shardTrack is the write history single-replica reads are checked against.
type shardTrack struct {
	routed  atomic.Uint64   // points sent to the replicas, counted before the push
	acked   atomic.Uint64   // points acknowledged, counted once every replica answered
	vouched map[string]bool // replicas holding every acknowledged write; under fedStream.mu
}

// tracked returns the shard's write history, or nil when there is none.
func (fs *fedStream) tracked(shard int) *shardTrack {
	if shard < len(fs.track) {
		return &fs.track[shard]
	}
	return nil
}

// unvouch drops, for good, every vouched replica of an acknowledged write
// that is not in held.
func (fs *fedStream) unvouch(tr *shardTrack, held map[string]bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for addr := range tr.vouched {
		if !held[addr] {
			delete(tr.vouched, addr)
		}
	}
}

// pick returns the healthy vouched replica a single read goes to,
// starting at the shard's rank in its placement (mod k) so the shards
// spread over the nodes and each replica's snapshot cache stays warm.
func (fs *fedStream) pick(tr *shardTrack, shard int, replicas []*peer) *peer {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := range replicas {
		p := replicas[(shard+i)%len(replicas)]
		if tr.vouched[p.addr] && p.isHealthy() {
			return p
		}
	}
	return nil
}

func (fs *fedStream) config() (client.StreamConfig, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cfg, fs.hasCfg
}

// lookupFed returns the managed stream registered under name.
func (co *Coordinator) lookupFed(name string) (*fedStream, bool) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	fs, ok := co.fstreams[name]
	return fs, ok
}

// fedList snapshots the managed-stream registry.
func (co *Coordinator) fedList() map[string]*fedStream {
	co.mu.RLock()
	defer co.mu.RUnlock()
	out := make(map[string]*fedStream, len(co.fstreams))
	for name, fs := range co.fstreams {
		out[name] = fs
	}
	return out
}

// adoptHinted rebuilds managed-stream entries from the shard-replica
// names ("<stream>@<shard>") the health sweeps scrape off data nodes — a
// restarted coordinator relearns what exists without any local state.
// The config stays unknown (no 404 backfill) until a create names it.
func (co *Coordinator) adoptHinted() {
	shardsOf := map[string]int{}
	for _, p := range co.peerList() {
		p.mu.Lock()
		for s := range p.streams {
			if name, shard, ok := parseShardStream(s); ok && shard+1 > shardsOf[name] {
				shardsOf[name] = shard + 1
			}
		}
		p.mu.Unlock()
	}
	if len(shardsOf) == 0 {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for name, shards := range shardsOf {
		if cur, ok := co.fstreams[name]; ok {
			if shards > cur.shards {
				cur.shards = shards
			}
			continue
		}
		co.fstreams[name] = &fedStream{shards: shards, replicas: co.cfg.Replication}
		if co.log != nil {
			co.log.Info("adopted federated stream from peer hints", "stream", name, "shards", shards)
		}
	}
}

// --- create / delete ---

// createStreamRequest is the coordinator's PUT body: a node StreamConfig
// plus the federation shape.
type createStreamRequest struct {
	client.StreamConfig
	Shards   int `json:"shards,omitempty"`
	Replicas int `json:"replicas,omitempty"`
}

func (co *Coordinator) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validFederatedName(name); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req createStreamRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	shards, replicas := req.Shards, req.Replicas
	if shards <= 0 {
		shards = co.cfg.Shards
	}
	if replicas <= 0 {
		replicas = co.cfg.Replication
	}
	if _, exists := co.lookupFed(name); exists {
		httpError(w, http.StatusConflict, "stream %q already exists", name)
		return
	}
	if len(co.peerList()) == 0 {
		httpError(w, http.StatusServiceUnavailable, "no peers registered")
		return
	}

	// Create every shard replica; a shard whose every replica refused
	// fails the create. An existing shard stream (409) counts as created —
	// PUT converges — but only a fresh one is vouched for single reads.
	var failed []string
	track := make([]shardTrack, shards)
	for shard := 0; shard < shards; shard++ {
		outs := fanOut(r.Context(), co, co.placement(name, shard, replicas),
			func(ctx context.Context, p *peer) (bool, error) {
				err := p.c.CreateStreamContext(ctx, shardStream(name, shard), req.StreamConfig)
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
					return false, nil
				}
				return err == nil, err
			})
		track[shard].vouched = map[string]bool{}
		created := 0
		for _, o := range outs {
			if o.err == nil && !o.notFound {
				created++
				if o.val {
					track[shard].vouched[o.addr] = true
				}
			}
		}
		if created == 0 {
			failed = append(failed, shardStream(name, shard))
		}
	}
	if len(failed) > 0 {
		httpError(w, http.StatusBadGateway,
			"no replica accepted shards %v; stream not registered", failed)
		return
	}

	fs := &fedStream{shards: shards, replicas: replicas, cfg: req.StreamConfig, hasCfg: true, track: track}
	co.mu.Lock()
	if _, exists := co.fstreams[name]; exists {
		co.mu.Unlock()
		httpError(w, http.StatusConflict, "stream %q already exists", name)
		return
	}
	co.fstreams[name] = fs
	co.mu.Unlock()
	if co.log != nil {
		co.log.Info("federated stream created", "stream", name, "shards", shards, "replicas", replicas)
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"name": name, "shards": shards, "replicas": replicas})
}

func (co *Coordinator) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fs, ok := co.lookupFed(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	co.mu.Lock()
	delete(co.fstreams, name)
	co.mu.Unlock()
	// Best-effort: drop every shard replica wherever placement may have
	// put it (including past placements still hinted on peers).
	for shard := 0; shard < fs.shards; shard++ {
		ss := shardStream(name, shard)
		fanOut(r.Context(), co, co.peerList(), func(ctx context.Context, p *peer) (struct{}, error) {
			return struct{}{}, p.c.DeleteStreamContext(ctx, ss)
		})
	}
	if co.log != nil {
		co.log.Info("federated stream deleted", "stream", name)
	}
	writeJSON(w, map[string]any{"deleted": name})
}

// --- replicated ingest ---

func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fs, ok := co.lookupFed(name)
	if !ok {
		httpError(w, http.StatusNotFound,
			"stream %q is not a federated stream; create it through the coordinator first", name)
		return
	}
	var req struct {
		Points []client.Point `json:"points"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, map[string]any{"ingested": 0})
		return
	}
	if err := co.ingestFed(r.Context(), name, fs, req.Points); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"ingested": len(req.Points)})
}

// ingestFed round-robins the batch across the stream's shards and writes
// each shard's sub-batch to all its replicas concurrently. It succeeds
// when every non-empty shard was acknowledged by at least one replica —
// the durability floor a kill-one-node test relies on.
func (co *Coordinator) ingestFed(ctx context.Context, name string, fs *fedStream, pts []client.Point) error {
	shards := fs.shards
	if shards < 1 {
		shards = 1
	}
	start := fs.rr.Add(uint64(len(pts))) - uint64(len(pts))
	byShard := make([][]client.Point, shards)
	for i, p := range pts {
		s := int((start + uint64(i)) % uint64(shards))
		byShard[s] = append(byShard[s], p)
	}

	var wg sync.WaitGroup
	errs := make([]error, shards)
	for shard, sub := range byShard {
		if len(sub) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, sub []client.Point) {
			defer wg.Done()
			errs[shard] = co.ingestShard(ctx, name, fs, shard, sub)
		}(shard, sub)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ingestShard writes one shard's sub-batch to every healthy replica of
// its placement and waits for all of them. A replica that 404s (a
// backfilled node that has not seen this stream yet) gets the stream
// created and the batch resent once, when the coordinator knows the
// config. Before the batch counts as acknowledged, every replica that
// did not take it directly leaves the shard's vouched set.
func (co *Coordinator) ingestShard(ctx context.Context, name string, fs *fedStream, shard int, sub []client.Point) error {
	tr := fs.tracked(shard)
	if tr != nil {
		tr.routed.Add(uint64(len(sub)))
	}
	_, targets := co.replicaTargets(name, shard, fs.replicas)
	ss := shardStream(name, shard)
	acks := 0
	held := map[string]bool{}
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range targets {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			err := co.pushReplica(ctx, p, ss, sub)
			direct := err == nil
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
					if cfg, ok := fs.config(); ok {
						cctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
						cerr := p.c.CreateStreamContext(cctx, ss, cfg)
						cancel()
						if cerr == nil {
							err = co.pushReplica(ctx, p, ss, sub)
						}
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				acks++
				held[p.addr] = direct
				co.replicaWrites.With(p.addr).Inc()
			} else {
				co.replicaWriteErrs.With(p.addr).Inc()
				if firstErr == nil {
					firstErr = fmt.Errorf("replica %s: %w", p.addr, err)
				}
			}
		}(p)
	}
	wg.Wait()
	if acks == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("no replicas reachable")
		}
		return fmt.Errorf("shard %s: no replica acknowledged the batch: %w", ss, firstErr)
	}
	if tr != nil {
		fs.unvouch(tr, held)
		tr.acked.Add(uint64(len(sub)))
	}
	return nil
}

// replicaTargets returns a shard's placement and its healthy members, or
// the whole placement when none is healthy: trying everyone beats
// dropping the call on a stale health verdict.
func (co *Coordinator) replicaTargets(name string, shard, k int) (replicas, targets []*peer) {
	replicas = co.placement(name, shard, k)
	for _, p := range replicas {
		if p.isHealthy() {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		targets = replicas
	}
	return replicas, targets
}

// pushReplica sends one sub-batch to a replica, preferring the binary
// wire path when the peer advertises one and falling back to HTTP.
func (co *Coordinator) pushReplica(ctx context.Context, p *peer, stream string, pts []client.Point) error {
	pctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
	defer cancel()
	if wa := p.getWireAddr(); wa != "" {
		if wc := co.wireConnFor(p.addr, wa); wc != nil {
			if err := wc.PushContext(pctx, stream, pts); err == nil {
				return nil
			}
			// Wire failed (listener gone, frame refused): HTTP decides.
		}
	}
	_, err := p.c.PushContext(pctx, stream, pts)
	return err
}

// wireConnFor returns (dialing if needed) the pooled WireConn for a
// peer. A dial failure caches nothing and returns nil — callers fall
// back to HTTP and the next push retries the dial.
func (co *Coordinator) wireConnFor(peerAddr, wireAddr string) *client.WireConn {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	if wc, ok := co.wires[peerAddr]; ok {
		return wc
	}
	wc, err := client.DialWire(wireAddr, client.WireConnConfig{
		DialTimeout: co.cfg.PeerTimeout,
		MaxRetries:  2,
	})
	if err != nil {
		return nil
	}
	co.wires[peerAddr] = wc
	return wc
}

// dropWireConns closes every pooled wire connection (Close path).
func (co *Coordinator) dropWireConns() {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	for addr, wc := range co.wires {
		wc.Close()
		delete(co.wires, addr)
	}
}

// IngestFrame implements wire.Sink: a coordinator can front a wire
// listener of its own, fanning each binary frame out exactly like the
// HTTP ingest path. Backpressure from every replica of a shard surfaces
// as a NACK (the client resends); anything else that leaves a shard
// unacknowledged is an authoritative error.
func (co *Coordinator) IngestFrame(f *wire.Frame) wire.Reply {
	name := string(f.Name)
	fs, ok := co.lookupFed(name)
	if !ok {
		return wire.Errorf("stream %q is not a federated stream", name)
	}
	// One label backing per frame: the points' *int labels point into it.
	pts := make([]client.Point, f.Count)
	labels := make([]int, f.Count)
	for i := 0; i < f.Count; i++ {
		v, label, weight := f.Point(i)
		pts[i] = client.Point{Values: v, Weight: weight}
		if label >= 0 {
			labels[i] = int(label)
			pts[i].Label = &labels[i]
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.PeerTimeout)
	defer cancel()
	if err := co.ingestFed(ctx, name, fs, pts); err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
			retry := apiErr.RetryAfter.Milliseconds()
			if retry < 0 {
				retry = 0
			}
			if retry > 65535 {
				retry = 65535
			}
			return wire.Nack(uint16(retry))
		}
		return wire.Errorf("%v", err)
	}
	return wire.Ack(0)
}

// --- replicated reads ---

// fanOutFirst runs call against every target concurrently and returns
// once all have answered or once at least one succeeded and a HedgeDelay
// grace has passed — a blackholed replica costs one grace period, not a
// full PeerTimeout. Abandoned calls are simply absent from the result.
func fanOutFirst[T any](ctx context.Context, co *Coordinator, targets []*peer, call func(context.Context, *peer) (T, error)) []outcome[T] {
	ch := make(chan outcome[T], len(targets))
	for _, p := range targets {
		go func(p *peer) {
			pctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
			defer cancel()
			co.peerReqs.With(p.addr).Inc()
			val, err := call(pctx, p)
			o := outcome[T]{addr: p.addr, val: val, err: err}
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
					o.notFound = true
					o.err = nil
				} else {
					co.peerErrs.With(p.addr).Inc()
				}
			}
			ch <- o
		}(p)
	}
	outs := make([]outcome[T], 0, len(targets))
	var graceC <-chan time.Time
	for len(outs) < len(targets) {
		select {
		case o := <-ch:
			outs = append(outs, o)
			if o.err == nil && !o.notFound && graceC == nil {
				t := time.NewTimer(co.cfg.HedgeDelay)
				defer t.Stop()
				graceC = t.C
			}
		case <-graceC:
			return outs
		case <-ctx.Done():
			return outs
		}
	}
	return outs
}

// readShard returns exactly one answer for a shard of a managed stream,
// from the replica at addr; pos extracts an answer's stream position T.
// It asks one vouched replica and keeps its answer when acked(read
// start) ≤ T ≤ routed(answer time); otherwise it asks every replica and
// keeps the most advanced answer by T (replicas hold the same shard, so
// two answers would double every Horvitz–Thompson term). ok is false
// when no replica answered; absent when every answer was a 404.
func readShard[T any](ctx context.Context, co *Coordinator, name string, fs *fedStream, shard int,
	call func(ctx context.Context, p *peer, ss string) (T, error), pos func(T) uint64) (best T, addr string, ok, absent bool) {
	replicas, targets := co.replicaTargets(name, shard, fs.replicas)
	ss := shardStream(name, shard)
	ask := func(ctx context.Context, p *peer) (T, error) { return call(ctx, p, ss) }
	reason := "unvouched"
	if tr := fs.tracked(shard); tr != nil {
		floor := tr.acked.Load()
		if p := fs.pick(tr, shard, replicas); p != nil {
			sctx, cancel := context.WithTimeout(ctx, co.cfg.HedgeDelay)
			outs := fanOutFirst(sctx, co, []*peer{p}, ask)
			silent := sctx.Err() != nil
			cancel()
			switch {
			case len(outs) == 0 || (outs[0].err != nil && silent):
				reason = "silent"
				co.hedges.Inc()
			case outs[0].err != nil || outs[0].notFound:
				reason = "error"
			case floor <= pos(outs[0].val) && pos(outs[0].val) <= tr.routed.Load():
				return outs[0].val, p.addr, true, false
			default:
				reason = "stale"
			}
		}
	}
	co.readFallbacks.With(reason).Inc()

	outs := fanOutFirst(ctx, co, targets, ask)
	answered, notFound := 0, 0
	for _, o := range outs {
		switch {
		case o.notFound:
			notFound++
		case o.err == nil:
			answered++
			if answered > 1 {
				co.dedupDropped.Inc()
			}
			if answered == 1 || pos(o.val) > pos(best) {
				best, addr = o.val, o.addr
			}
		}
	}
	return best, addr, answered > 0, answered == 0 && notFound > 0 && notFound == len(outs)
}

// shardRead is one shard's readShard result.
type shardRead[T any] struct {
	val        T
	addr       string
	ok, absent bool
}

// readShards runs readShard on every shard concurrently and returns the
// results plus how many shards answered. When no shard can contribute it
// writes the 404 (absent everywhere) or 503 itself and returns nil.
func readShards[T any](w http.ResponseWriter, r *http.Request, co *Coordinator, route, name string, fs *fedStream,
	call func(ctx context.Context, p *peer, ss string) (T, error), pos func(T) uint64) ([]shardRead[T], int) {
	start := time.Now()
	co.fanouts.With(route).Inc()
	results := make([]shardRead[T], fs.shards)
	var wg sync.WaitGroup
	for shard := range results {
		wg.Add(1)
		go func(res *shardRead[T], shard int) {
			defer wg.Done()
			res.val, res.addr, res.ok, res.absent = readShard(r.Context(), co, name, fs, shard, call, pos)
		}(&results[shard], shard)
	}
	wg.Wait()
	co.fanLat.With(route).Observe(time.Since(start).Seconds())

	okShards, absentShards := 0, 0
	for _, res := range results {
		if res.ok {
			okShards++
		} else if res.absent {
			absentShards++
		}
	}
	switch {
	case absentShards == fs.shards:
		httpError(w, http.StatusNotFound, "stream %q not found on any replica", name)
	case okShards == 0:
		httpError(w, http.StatusServiceUnavailable, "all %d shards of stream %q failed", fs.shards, name)
	default:
		return results, okShards
	}
	return nil, 0
}

// managedQuery answers a federated query for a coordinator-managed
// stream: one accumulator per shard, merged exactly as the legacy path
// merges per-node shards.
func (co *Coordinator) managedQuery(w http.ResponseWriter, r *http.Request, name string, fs *fedStream, typ string, h uint64, rect *query.Rect) {
	per := splitHorizon(h, fs.shards)
	results, okShards := readShards(w, r, co, "query", name, fs,
		func(ctx context.Context, p *peer, ss string) (*query.Accum, error) {
			return p.c.AccumContext(ctx, ss, per, rect)
		},
		func(a *query.Accum) uint64 { return a.T })
	if results == nil {
		return
	}
	merged := query.NewMergeAccum(h)
	for _, res := range results {
		if res.ok {
			merged.Merge(res.val)
		}
	}
	co.writeMergedQuery(w, typ, merged, okShards, fs.shards)
}

// managedSample concatenates one reservoir per shard.
func (co *Coordinator) managedSample(w http.ResponseWriter, r *http.Request, name string, fs *fedStream) {
	results, okShards := readShards(w, r, co, "sample", name, fs,
		func(ctx context.Context, p *peer, ss string) (*client.Sample, error) {
			return p.c.SampleContext(ctx, ss)
		},
		func(s *client.Sample) uint64 { return s.T })
	if results == nil {
		return
	}
	var maxT uint64
	points := []fedSamplePoint{}
	for _, res := range results {
		if !res.ok {
			continue
		}
		maxT = max(maxT, res.val.T)
		for _, sp := range res.val.Points {
			points = append(points, fedSamplePoint{
				Index: sp.Index, Values: sp.Values, Label: sp.Label, Prob: sp.Prob, Origin: res.addr,
			})
		}
	}
	partial := okShards < fs.shards
	if partial {
		co.partials.Inc()
	}
	writeJSON(w, map[string]any{
		"t": maxT, "points": points,
		"shards_ok": okShards, "shards_total": fs.shards, "partial": partial,
	})
}

// fedStreamNames folds shard-replica names back into their federated
// stream for the GET /streams union.
func fedStreamNames(raw map[string]bool, managed map[string]*fedStream) []string {
	union := map[string]bool{}
	for name := range raw {
		if base, _, ok := parseShardStream(name); ok {
			union[base] = true
		} else {
			union[name] = true
		}
	}
	for name := range managed {
		union[name] = true
	}
	names := make([]string, 0, len(union))
	for name := range union {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
