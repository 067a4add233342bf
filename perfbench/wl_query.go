package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/client"
)

// queryWL is query_mix_http: four preloaded streams on the async lane.
// Connection A sends an open-loop JSON ingest schedule and reads stats
// until each batch is visible, plus a /metrics scrape every second;
// connection B runs a closed-loop query mix.
type queryWL struct {
	seed    uint64
	specs   []streamSpec
	preload [][][]client.Point
	// preloadDigest is the digest of the preload's draw.
	preloadDigest string
	batches       []qbatch
	queries       []qspec

	n     *node
	a, b  *conn
	wc    *client.WireConn
	acked []atomic.Uint64

	// ran are the measured phase's queries, kept for the traced run's
	// kernel replay.
	ran []qspec
}

// qbatch is one open-loop ingest batch.
type qbatch struct {
	stream int
	pts    []client.Point
}

const (
	queryDim       = 8
	queryPreload   = 200_000
	queryRate      = 100 // batches per second on connection A
	queryBatch     = 64
	queryWorkers   = 2 // -ingest-workers
	queryMixSize   = 4096
	scrapeEvery    = time.Second
	visibleTimeout = 2 * time.Second
)

func (w *queryWL) streamNames() []string { return names(w.specs) }
func (w *queryWL) primary() string       { return "query_per_s" }

func (w *queryWL) generate(seed uint64, seconds int) string {
	w.seed = seed
	w.specs = []streamSpec{
		variableStream("qv0", 1e-4, 10000),
		variableStream("qv1", 1e-4, 10000),
		ladderStream("ql", 1e-3, 1000),
		rtbsStream("qr", 1e-4, 5000),
	}
	w.preload = nil
	w.genPreload()
	gb := newGen(seed, 301)
	w.batches = make([]qbatch, queryRate*seconds)
	for i := range w.batches {
		w.batches[i] = qbatch{stream: gb.intN(len(w.specs)), pts: gb.points(queryBatch, queryDim)}
	}
	gq := newGen(seed, 302)
	w.queries = gq.queries(queryMixSize, len(w.specs), queryRoutes,
		func(s int) bool { return w.specs[s].kind == "tiered" },
		[]uint64{1000, 10_000, 100_000, queryPreload}, queryDim, queryPreload)
	return combineDigests(w.preloadDigest, gb.digest(), gq.digest())
}

// genPreload returns the preload, drawing it again if measure dropped
// it: 51 MiB of set-up input should not count in heap_live_mb.
func (w *queryWL) genPreload() [][][]client.Point {
	if w.preload != nil {
		return w.preload
	}
	g := newGen(w.seed, 300)
	w.preload = make([][][]client.Point, len(w.specs))
	for i := range w.specs {
		w.preload[i] = chunk(g.points(queryPreload, queryDim), 8192)
	}
	w.preloadDigest = g.digest()
	return w.preload
}

func (w *queryWL) up(r *run, tr *tracer) error {
	var err error
	if w.n, err = startNode(nodeConfig{seed: w.seed, workers: queryWorkers}, tr, 0); err != nil {
		return err
	}
	w.a, w.b = newConn(w.n.url, false), newConn(w.n.url, false)
	if err := waitReady(w.a, 10*time.Second); err != nil {
		return err
	}
	for _, s := range w.specs {
		if err := w.a.CreateStream(s.name, s.cfg); err != nil {
			return err
		}
	}
	if w.wc, err = client.DialWire(w.n.wireAddr, client.WireConnConfig{}); err != nil {
		return err
	}
	// Each stream's preload is 25 frames, under the 64-batch queue, so
	// the async lane never pushes back during set-up.
	preload := w.genPreload()
	for i, s := range w.specs {
		if err := preloadWire(w.wc, s.name, preload[i]); err != nil {
			return err
		}
	}
	w.acked = make([]atomic.Uint64, len(w.specs))
	for i, s := range w.specs {
		if err := waitProcessed(w.a, s.name, queryPreload, 20*time.Second); err != nil {
			return err
		}
		w.acked[i].Store(queryPreload)
	}
	return nil
}

// pendingBatch is an acknowledged batch not yet seen by a stats read.
type pendingBatch struct {
	stream int
	target uint64 // the batch's last arrival index
	due    time.Time
}

// warmUp runs each distinct query of the mix once before the measured
// phase. Besides filling the snapshot caches, it creates every metric
// series the queries touch (route and status, tier), so connection A's
// scrapes never run while a query adds a series: the registry's scrape
// reads its series maps after releasing their lock, a race the program
// has today.
func (w *queryWL) warmUp(r *run) {
	seen := map[qspec]bool{}
	for _, q := range w.queries {
		key := qspec{stream: q.stream, route: q.route, h: q.h}
		if seen[key] {
			continue
		}
		seen[key] = true
		_ = doQuery(w.b, r.acct, w.specs[q.stream].name, q, float64(q.h), w.specs[q.stream].minLambda(), 1)
	}
	for _, s := range w.specs {
		_, err := w.a.Stats(s.name)
		r.acct.op(err)
	}
}

func (w *queryWL) measure(r *run, d time.Duration) {
	w.preload = nil
	w.warmUp(r)
	var m0 map[string]float64
	if r.tr != nil {
		m0 = scrape(w.a)
		r.tr.on.Store(true)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var qms []float64
	var qdone []int64
	var ran []qspec
	wg.Add(1)
	go func() {
		defer wg.Done()
		qms, qdone, ran = w.queryLoop(r, start, deadline)
	}()
	ack, vis, late, batchPts, scrapes := w.ingestLoop(r, start, deadline)
	wg.Wait()
	elapsed := time.Since(start)
	if r.tr != nil {
		r.tr.on.Store(false)
		w.layerCounters(r, m0, scrape(w.a), len(qms), len(ack))
	}
	w.ran = ran
	r.rep.counts["ingest_ack"] = len(ack)
	r.rep.counts["visible"] = len(vis)
	r.rep.counts["query"] = len(qms)
	r.rep.counts["scrapes"] = scrapes
	r.rep.counts["ops"] = len(ack) + len(qms)
	r.rep.set("ingest_pts_per_s", float64(batchPts)/elapsed.Seconds())
	r.rep.winPct("ingest_ack_p50_ms", ack, 0.50)
	r.rep.winPct("ingest_ack_p99_ms", ack, 0.99)
	r.rep.winPct("visible_p50_ms", vis, 0.50)
	r.rep.winPct("visible_p99_ms", vis, 0.99)
	r.rep.set("query_per_s", windowedRate(qdone, ones(len(qdone)), d))
	r.rep.winPct("query_p50_ms", qms, 0.50)
	r.rep.winPct("query_p99_ms", qms, 0.99)
	r.rep.pct("loadgen.late_p99_ms", late, 0.99, 1)
}

// ingestLoop is connection A: batch i is due at start + i/queryRate and
// is timed from its due time; between sends the loop reads stats until
// every acknowledged batch is visible, and scrapes /metrics once a second.
func (w *queryWL) ingestLoop(r *run, start, deadline time.Time) (ack, vis, late []float64, pts, scrapes int) {
	interval := time.Second / queryRate
	var pending []pendingBatch
	nextScrape := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		waitUntil(due)
		late = append(late, float64(time.Since(due))/1e6)
		b := w.batches[i%len(w.batches)]
		name := w.specs[b.stream].name
		reqStart := time.Now()
		id := w.a.stamp(1 << 40)
		_, err := w.a.PushContext(context.Background(), name, b.pts)
		end := time.Now()
		if r.tr != nil {
			r.tr.add(span{start: int64(due.Sub(r.tr.base)), end: int64(end.Sub(r.tr.base)), kind: kClientHTTP,
				node: -1, route: rIngest, req: id, stream: int16(b.stream), n: int64(reqStart.Sub(due))})
		}
		if !r.acct.op(err) {
			ack = append(ack, math.Inf(1))
			vis = append(vis, math.Inf(1))
		} else {
			ack = append(ack, float64(end.Sub(due))/1e6)
			pts += len(b.pts)
			target := w.acked[b.stream].Add(uint64(len(b.pts)))
			pending = append(pending, pendingBatch{b.stream, target, due})
		}
		next := start.Add(time.Duration(i+1) * interval)
		pending = w.poll(r, pending, &vis, next)
		// The scrape goes in the gap before the next send, once every
		// batch is visible, so it delays neither an ack nor a visibility
		// read of this connection.
		if len(pending) == 0 && !time.Now().Before(nextScrape) && time.Now().Before(next) {
			w.a.stamp(1 << 40)
			_, err := w.a.Metrics()
			r.acct.op(err)
			scrapes++
			nextScrape = nextScrape.Add(scrapeEvery)
		}
	}
	pending = w.poll(r, pending, &vis, time.Now().Add(visibleTimeout))
	for range pending {
		r.acct.fail("not_visible")
		vis = append(vis, math.Inf(1))
	}
	return ack, vis, late, pts, scrapes
}

// spinBefore is how long before a send is due the generator stops
// sleeping and yields in a loop instead: a timer wake-up can overshoot
// by half a millisecond on a virtual machine, which would make the
// generator, not the system, late.
const spinBefore = time.Millisecond

// waitUntil returns at t: it sleeps until spinBefore ahead, then yields.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// poll reads the stats of the oldest pending batch's stream until every
// pending batch is visible or until is reached. Each read is a round
// trip, so the loop needs no pause of its own.
func (w *queryWL) poll(r *run, pending []pendingBatch, vis *[]float64, until time.Time) []pendingBatch {
	for len(pending) > 0 && time.Now().Before(until) {
		s := pending[0].stream
		w.a.stamp(1 << 40)
		st, err := w.a.Stats(w.specs[s].name)
		if !r.acct.op(err) {
			continue
		}
		now := time.Now()
		kept := pending[:0]
		for _, p := range pending {
			if p.stream == s && p.target <= st.Processed {
				*vis = append(*vis, float64(now.Sub(p.due))/1e6)
			} else {
				kept = append(kept, p)
			}
		}
		pending = kept
	}
	return pending
}

// queryLoop is connection B's closed loop.
func (w *queryWL) queryLoop(r *run, start, deadline time.Time) (qms []float64, done []int64, ran []qspec) {
	qms = make([]float64, 0, 1<<16)
	done = make([]int64, 0, 1<<16)
	ran = make([]qspec, 0, 1<<16)
	for i := 0; time.Now().Before(deadline); i++ {
		q := w.queries[i%len(w.queries)]
		name := w.specs[q.stream].name
		id := w.b.stamp(2 << 40)
		t0 := time.Now()
		err := doQuery(w.b, r.acct, name, q, float64(q.h), w.specs[q.stream].minLambda(), 1)
		t1 := time.Now()
		if r.tr != nil {
			r.tr.add(span{start: int64(t0.Sub(r.tr.base)), end: int64(t1.Sub(r.tr.base)), kind: kClientHTTP,
				node: -1, route: q.route, req: id, stream: int16(q.stream)})
		}
		if err != nil {
			qms = append(qms, math.Inf(1))
		} else {
			qms = append(qms, float64(t1.Sub(t0))/1e6)
			done = append(done, int64(t1.Sub(start)))
		}
		ran = append(ran, q)
	}
	return qms, done, ran
}

// finish waits for the async lane to drain and checks that every
// acknowledged point reached its sampler.
func (w *queryWL) finish(r *run) {
	for i, s := range w.specs {
		err := waitProcessed(w.a, s.name, w.acked[i].Load(), 10*time.Second)
		r.acct.check("acked_eq_processed", err == nil)
		if err == nil {
			st, err := w.a.Stats(s.name)
			if r.acct.op(err) {
				r.acct.check("acked_eq_processed", st.Processed == w.acked[i].Load())
			}
		}
	}
	if r.tr != nil {
		w.scrapeSeries(r)
	}
	w.down()
}

func (w *queryWL) down() {
	w.wc.Close()
	w.a.close()
	w.b.close()
	w.n.close()
}
