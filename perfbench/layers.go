package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"biasedres/internal/client"
)

// scrape reads /metrics of each of conns and sums equal series, so
// counters add up across data nodes.
func scrape(conns ...*conn) map[string]float64 {
	out := map[string]float64{}
	for _, c := range conns {
		text, err := c.Metrics()
		if err != nil {
			continue
		}
		for k, v := range promSeries(text) {
			out[k] += v
		}
	}
	return out
}

// addDelta adds the counter increments from before to after to acc, so
// acc holds the increments over several measured slices.
func addDelta(acc, before, after map[string]float64) {
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			acc[k] += d
		}
	}
}

// durations returns each span's duration in nanoseconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.end - s.start)
	}
	return out
}

// spanIndex locates spans in the tracer's slice, for trace links.
func spanIndex(tr *tracer) map[span]int {
	idx := make(map[span]int, len(tr.spans))
	for i, s := range tr.spans {
		idx[s] = i
	}
	return idx
}

// matchContained returns, for each child, the parent with the same key
// whose interval contains it (-1 when none). Among several containing
// parents it picks the one ending first after the child: on the sync
// lane the frame that holds the stream lock during a journal write
// finishes before frames queued behind it.
func matchContained(parents, children []span, key func(span) uint64) []int {
	byKey := map[uint64][]int{}
	for i, p := range parents {
		k := key(p)
		byKey[k] = append(byKey[k], i)
	}
	out := make([]int, len(children))
	for ci, c := range children {
		out[ci] = -1
		cands := byKey[key(c)]
		// parents are sorted by start: scan back from the last one that
		// started before the child.
		j := sort.Search(len(cands), func(i int) bool { return parents[cands[i]].start > c.start })
		best := -1
		for k := j - 1; k >= 0 && j-k <= 64; k-- {
			p := parents[cands[k]]
			if p.end >= c.end && (best < 0 || p.end < parents[best].end) {
				best = cands[k]
			}
		}
		out[ci] = best
	}
	return out
}

// selfTimes returns each parent's duration minus the union of its
// matched children, plus the trace links.
func selfTimes(parents, children []span, match []int, idx map[span]int, inferred bool) ([]float64, []link) {
	kids := make([][]interval, len(parents))
	var links []link
	for ci, pi := range match {
		if pi < 0 {
			continue
		}
		kids[pi] = append(kids[pi], children[ci].iv())
		links = append(links, link{child: idx[children[ci]], parent: idx[parents[pi]], inferred: inferred})
	}
	out := make([]float64, len(parents))
	for i, p := range parents {
		out[i] = float64(selfTime(p.iv(), kids[i]))
	}
	return out, links
}

func streamKey(s span) uint64 { return uint64(uint16(s.stream)) }
func frameKey(s span) uint64  { return s.fp ^ uint64(uint16(s.stream))<<48 }

func (r *run) writeTrace(links []link) {
	path := filepath.Join(r.out, "traces", fmt.Sprintf("%s-seed%d.jsonl.gz", r.workload, r.seed))
	if err := r.tr.write(path, links); err != nil {
		r.rep.notes = append(r.rep.notes, "trace not written: "+err.Error())
	}
}

// transportSelf links client flush spans to the sink spans of the same
// frame and reports the client span minus its sink child.
func transportSelf(r *run, clients, sinks []span, idx map[span]int) []link {
	match := matchContained(clients, sinks, frameKey)
	var self []float64
	var links []link
	for si, ci := range match {
		if ci < 0 {
			continue
		}
		self = append(self, float64(selfTime(clients[ci].iv(), []interval{sinks[si].iv()})))
		links = append(links, link{child: idx[sinks[si]], parent: idx[clients[ci]]})
	}
	r.rep.counts["wire.transport_matched"] = len(self)
	r.rep.counts["wire.transport_unmatched"] = len(clients) - len(self)
	r.rep.pct("wire.transport_self_ns_p50", append([]float64(nil), self...), 0.50, 1)
	r.rep.pct("wire.transport_self_ns_p99", self, 0.99, 1)
	return links
}

// --- ingest_wire_durable ---

func (w *ingestWL) layerCounters(r *run, m0, m1 map[string]float64) {
	frames := counterDelta(m0, m1, "biasedres_wire_frames_total")
	r.rep.set("wire.nack_frac", ratio(counterDelta(m0, m1, "biasedres_wire_nacks_total"), frames))
	r.rep.set("wire.bytes_per_pt", ratio(counterDelta(m0, m1, "biasedres_wire_bytes_total"),
		counterDelta(m0, m1, "biasedres_points_ingested_total")))
	var addNs int64
	pts := 0
	for _, p := range w.prods {
		addNs += p.addNs
		pts += p.points
	}
	r.rep.set("client.push_ns_per_pt", ratio(float64(addNs), float64(pts)))
}

func (w *ingestWL) layers(r *run) {
	tr := r.tr
	idx := spanIndex(tr)
	clients := tr.byKind(kClientFlush, -1)
	frames := tr.byKind(kServerFrame, 0)
	links := transportSelf(r, clients, frames, idx)

	r.rep.counts["server.ingest_frame"] = len(frames)
	r.rep.pct("server.ingest_frame_ns_p50", durations(frames), 0.50, 1)
	r.rep.pct("server.ingest_frame_ns_p99", durations(frames), 0.99, 1)
	writes := tr.byKind(kJournalWrite, -1)
	self, l := selfTimes(frames, writes, matchContained(frames, writes, streamKey), idx, true)
	links = append(links, l...)
	r.rep.pct("server.ingest_frame_self_ns_p50", self, 0.50, 1)

	r.rep.counts["durable.journal_write"] = len(writes)
	r.rep.pct("durable.journal_write_ns_p50", durations(writes), 0.50, 1)
	r.rep.pct("durable.journal_write_ns_p99", durations(writes), 0.99, 1)
	var wbytes, pts float64
	for _, s := range writes {
		wbytes += float64(s.n)
	}
	for _, s := range frames {
		pts += float64(s.n)
	}
	r.rep.set("durable.journal_bytes_per_pt", ratio(wbytes, pts))
	syncs := tr.byKind(kJournalSync, -1)
	r.rep.set("durable.syncs", float64(len(syncs)))
	r.rep.pct("durable.journal_sync_ns_p50", durations(syncs), 0.50, 1)
	r.rep.pct("durable.journal_sync_ns_p99", durations(syncs), 0.99, 1)

	// A checkpoint runs from its journal rotation to the rename that
	// publishes it.
	rot := map[int16]int64{}
	var ckptMax float64
	ckpts := 0
	for _, s := range tr.spans {
		switch s.kind {
		case kRotate:
			rot[s.stream] = s.start
		case kPublish:
			if t, ok := rot[s.stream]; ok {
				ckptMax = max(ckptMax, float64(s.end-t))
				delete(rot, s.stream)
			}
			ckpts++
		}
	}
	var cbytes float64
	for _, s := range tr.byKind(kCkptWrite, -1) {
		cbytes += float64(s.n)
	}
	r.rep.set("durable.checkpoint_ns_max", ckptMax)
	r.rep.set("durable.checkpoints", float64(ckpts))
	r.rep.set("durable.checkpoint_bytes", cbytes)

	// Replays: each sampler kind on its busiest stream, warmed with the
	// stream's preload, then fed the frames the run sent to it.
	var sent []frameIn
	for _, p := range w.prods {
		sent = append(sent, p.sent()...)
	}
	perStream := make([][][]client.Point, len(w.specs))
	for _, f := range sent {
		perStream[f.stream] = append(perStream[f.stream], f.pts)
	}
	for _, kind := range samplerKinds {
		best := -1
		for i, s := range w.specs {
			if s.kind == kind && (best < 0 || len(perStream[i]) > len(perStream[best])) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		replayKind(r, w.specs[best], w.seed, w.preload[best], perStream[best])
	}
	codecReplay(r, sent, func(i int) string { return w.specs[i].name })
	r.writeTrace(links)
}

// replayKind times core.AddBatch and a snapshot rebuild for one stream
// and returns its replay sampler.
func replayKind(r *run, spec streamSpec, seed uint64, warm, batches [][]client.Point) *replayStream {
	rs, err := newReplayStream(spec, seed)
	if !r.acct.op(err) {
		return nil
	}
	rs.apply(warm)
	n, d := rs.timeApply(batches)
	r.rep.set("core.apply_ns_per_pt."+spec.kind, ratio(float64(d), float64(n)))
	if spec.kind != "ttbs" {
		r.rep.set("core.snapshot_rebuild_ns."+spec.kind, rs.rebuildNs())
	}
	return rs
}

// --- query_mix_http ---

// snapshotCounters derives the snapshot-cache metrics from data-node
// /metrics deltas. Only stream-level caches are exported; the per-tier
// caches of a ladder are not counted.
func snapshotCounters(r *run, m0, m1 map[string]float64, queries int) {
	hits := counterDelta(m0, m1, "biasedres_snapshot_cache_hits_total")
	misses := counterDelta(m0, m1, "biasedres_snapshot_cache_misses_total")
	r.rep.set("core.snapshot_hit_frac", ratio(hits, hits+misses))
	r.rep.set("core.rebuilds_per_query", ratio(counterDelta(m0, m1, "biasedres_snapshot_cache_rebuilds_total"), float64(queries)))
}

func (w *queryWL) layerCounters(r *run, m0, m1 map[string]float64, queries, batches int) {
	snapshotCounters(r, m0, m1, queries)
	r.rep.set("server.reject_frac", ratio(counterDelta(m0, m1, "biasedres_ingest_rejected_batches_total"), float64(batches)))
}

func (w *queryWL) layers(r *run) {
	tr := r.tr
	idx := spanIndex(tr)
	handler := tr.byKind(kHTTP, 0)
	clients := tr.byKind(kClientHTTP, -1)
	byReq := map[uint64]int{}
	for _, c := range clients {
		byReq[c.req] = idx[c]
	}
	var links []link
	var ingest []float64
	var pendMax float64
	perRoute := map[uint8][]float64{}
	var allQ []float64
	for _, s := range handler {
		if p, ok := byReq[s.req]; ok && s.req != 0 {
			links = append(links, link{child: idx[s], parent: p})
		}
		d := float64(s.end - s.start)
		switch s.route {
		case rIngest:
			ingest = append(ingest, d)
			pendMax = max(pendMax, float64(s.n))
		case rCount, rAverage, rClassdist, rSelectivity, rQuantile, rRange:
			perRoute[s.route] = append(perRoute[s.route], d)
			allQ = append(allQ, d)
		}
	}
	r.rep.counts["server.ingest_http"] = len(ingest)
	r.rep.pct("server.ingest_http_ns_p50", append([]float64(nil), ingest...), 0.50, 1)
	r.rep.pct("server.ingest_http_ns_p99", ingest, 0.99, 1)
	for _, rt := range queryRoutes {
		r.rep.counts["server.query."+routeNames[rt]] = len(perRoute[rt])
		r.rep.pct("server.query_ns_p50."+routeNames[rt], perRoute[rt], 0.50, 1)
	}
	r.rep.pct("server.query_ns_p99", allQ, 0.99, 1)
	r.rep.set("server.pending_pts_max", pendMax)

	// Replays on samplers warmed with the same preload and fed the
	// run's own batches.
	perStream := make([][][]client.Point, len(w.specs))
	for i := 0; i < len(w.batches) && i < r.rep.counts["ingest_ack"]; i++ {
		b := w.batches[i]
		perStream[b.stream] = append(perStream[b.stream], b.pts)
	}
	preload := w.genPreload()
	streams := make([]*replayStream, len(w.specs))
	for i, s := range w.specs {
		streams[i] = replayKind(r, s, w.seed, preload[i], perStream[i])
	}
	kernelReplay(r, streams, w.ran, queryDim, 1)
	r.writeTrace(links)
}

// scrapeSeries times back-to-back /metrics scrapes on the loaded,
// quiesced node: the run's one-a-second scrapes are too few for
// percentiles.
func (w *queryWL) scrapeSeries(r *run) {
	var xs []float64
	var bytes float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		text, err := w.a.Metrics()
		if !r.acct.op(err) {
			continue
		}
		xs = append(xs, float64(time.Since(t0)))
		bytes = float64(len(text))
	}
	r.rep.counts["obs.scrape"] = len(xs)
	r.rep.pct("obs.scrape_ns_p50", append([]float64(nil), xs...), 0.50, 1)
	r.rep.pct("obs.scrape_ns_p99", xs, 0.99, 1)
	r.rep.set("obs.scrape_bytes", bytes)
}

// --- federated_replicated ---

func (w *fedWL) layerCounters(r *run, m0, m1, n0, n1 map[string]float64, queries int) {
	snapshotCounters(r, n0, n1, queries)
	frames := counterDelta(m0, m1, "biasedres_wire_frames_total")
	r.rep.set("wire.nack_frac", ratio(counterDelta(m0, m1, "biasedres_wire_nacks_total"), frames))
	r.rep.set("wire.bytes_per_pt", ratio(counterDelta(m0, m1, "biasedres_wire_bytes_total"), float64(w.prod.points)))
	r.rep.set("federation.replica_writes_per_frame", ratio(counterDelta(m0, m1, "biasedres_fed_replica_writes_total"), frames))
	r.rep.set("federation.hedge_frac", ratio(counterDelta(m0, m1, "biasedres_fed_hedged_requests_total"),
		counterDelta(m0, m1, "biasedres_fed_peer_requests_total")))
	r.rep.set("client.push_ns_per_pt", ratio(float64(w.prod.addNs), float64(w.prod.points)))
}

func (w *fedWL) layers(r *run) {
	tr := r.tr
	idx := spanIndex(tr)
	coordID := int8(fedNodes)
	clients := tr.byKind(kClientFlush, -1)
	coFrames := tr.byKind(kCoordFrame, coordID)
	links := transportSelf(r, clients, coFrames, idx)

	// Replica writes are data-node sink spans; shard s of a frame starts
	// with the frame's point s, so the fingerprint links them exactly.
	nodeFrames := tr.byKind(kServerFrame, -1)
	r.rep.counts["server.ingest_frame"] = len(nodeFrames)
	r.rep.pct("server.ingest_frame_ns_p50", durations(nodeFrames), 0.50, 1)
	r.rep.pct("server.ingest_frame_ns_p99", durations(nodeFrames), 0.99, 1)
	r.rep.pct("server.ingest_frame_self_ns_p50", durations(nodeFrames), 0.50, 1)
	byFP := map[uint64][]int{}
	for i, c := range coFrames {
		byFP[c.fp] = append(byFP[c.fp], i)
		byFP[c.fp2] = append(byFP[c.fp2], i)
	}
	match := make([]int, len(nodeFrames))
	for ci, nf := range nodeFrames {
		match[ci] = -1
		for _, pi := range byFP[nf.fp] {
			if p := coFrames[pi]; p.start <= nf.start && p.end >= nf.end {
				match[ci] = pi
			}
		}
	}
	self, l := selfTimes(coFrames, nodeFrames, match, idx, false)
	links = append(links, l...)
	r.rep.counts["federation.ingest_frame"] = len(coFrames)
	r.rep.pct("federation.ingest_frame_self_ns_p50", append([]float64(nil), self...), 0.50, 1)
	r.rep.pct("federation.ingest_frame_self_ns_p99", self, 0.99, 1)

	// Peer /accum calls carry no request id yet: they attach to the
	// coordinator query span containing them (inferred links).
	var coQueries []span
	for _, s := range tr.byKind(kHTTP, coordID) {
		if s.route >= rCount {
			coQueries = append(coQueries, s)
		}
	}
	var accums []span
	for _, s := range tr.spans {
		if s.kind == kHTTP && s.node < coordID && s.route == rAccum {
			accums = append(accums, s)
		}
	}
	sort.Slice(accums, func(i, j int) bool { return accums[i].start < accums[j].start })
	qself, l := selfTimes(coQueries, accums, matchContained(coQueries, accums, func(span) uint64 { return 0 }), idx, true)
	links = append(links, l...)
	r.rep.counts["federation.query"] = len(coQueries)
	r.rep.counts["federation.peer_accum"] = len(accums)
	r.rep.pct("federation.query_self_ns_p50", append([]float64(nil), qself...), 0.50, 1)
	r.rep.pct("federation.query_self_ns_p99", qself, 0.99, 1)
	r.rep.pct("federation.peer_accum_ns_p50", durations(accums), 0.50, 1)
	r.rep.pct("federation.peer_accum_ns_p99", durations(accums), 0.99, 1)

	// Replays on one shard: the coordinator sends a frame's even points
	// to shard 0.
	sent := w.prod.sent()
	half := func(pts []client.Point) []client.Point {
		out := make([]client.Point, 0, (len(pts)+1)/2)
		for i := 0; i < len(pts); i += 2 {
			out = append(out, pts[i])
		}
		return out
	}
	var warm, batches [][]client.Point
	for _, b := range w.preload {
		warm = append(warm, half(b))
	}
	for _, f := range sent {
		batches = append(batches, half(f.pts))
	}
	rs := replayKind(r, w.spec, w.seed, warm, batches)
	if rs != nil {
		kernelReplay(r, []*replayStream{rs}, w.ran, fedDim, fedShards)
	}
	codecReplay(r, sent, func(int) string { return w.spec.name })
	r.writeTrace(links)
}
