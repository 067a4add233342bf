package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/client"
)

// fedWL is federated_replicated: a coordinator over two data nodes with
// shards=2 and replication=2. One closed-loop wire producer sends
// 256-point frames into the coordinator's wire sink; one closed-loop
// HTTP client queries the coordinator.
type fedWL struct {
	seed    uint64
	spec    streamSpec
	ring    []frameIn
	preload [][]client.Point
	probes  []frameIn
	queries []qspec

	nodes []*node
	co    *coordinator
	c     *conn   // queries, to the coordinator
	nc    []*conn // stats reads, to each data node (probe and checks only)
	prod  *producer
	acked atomic.Uint64 // points acknowledged by the coordinator, preload included

	ran []qspec
}

const (
	fedShards      = 2
	fedReplication = 2
	fedNodes       = 2
	fedDim         = 4
	fedPreload     = 100_000
)

func (w *fedWL) streamNames() []string {
	out := []string{w.spec.name}
	for s := 0; s < fedShards; s++ {
		out = append(out, shardName(w.spec.name, s))
	}
	return out
}

// shardName is the data-node stream holding one shard of a
// coordinator-managed stream.
func shardName(name string, shard int) string { return fmt.Sprintf("%s@%d", name, shard) }

func (w *fedWL) primary() string { return "ingest_pts_per_s" }

func (w *fedWL) generate(seed uint64, seconds int) string {
	w.seed = seed
	w.spec = variableStream("fv", 1e-4, 10000)
	g := newGen(seed, 400)
	one := func() int { return 0 }
	w.ring = g.frames(ingestRing, ingestFrame, fedDim, one)
	w.preload = chunk(g.points(fedPreload, fedDim), preloadFrameSize)
	w.probes = g.frames(ingestProbeRing, ingestFrame, fedDim, one)
	// Even horizons split exactly across the two shards, so the true
	// count of horizon h is h.
	w.queries = g.queries(queryMixSize, 1, []uint8{rCount, rAverage, rClassdist, rSelectivity},
		func(int) bool { return false }, []uint64{1000, 10_000, fedPreload}, fedDim, 0)
	return g.digest()
}

func (w *fedWL) up(r *run, tr *tracer) error {
	w.nodes, w.nc = w.nodes[:0], w.nc[:0]
	var peers []string
	for i := 0; i < fedNodes; i++ {
		n, err := startNode(nodeConfig{seed: w.seed + uint64(i) + 1}, tr, int8(i))
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, n)
		w.nc = append(w.nc, newConn(n.url, false))
		peers = append(peers, n.url)
	}
	var err error
	// The nodes advertise their wire addresses before the coordinator's
	// first health sweep, so replica writes take the wire path from the
	// first frame.
	if w.co, err = startCoordinator(peers, fedReplication, fedShards, tr, fedNodes); err != nil {
		return err
	}
	w.c = newConn(w.co.url, true)
	if err := waitReady(w.c, 10*time.Second); err != nil {
		return err
	}
	if err := w.c.CreateStream(w.spec.name, w.spec.cfg); err != nil {
		return err
	}
	if w.prod, err = dialProducer(w.co.wireAddr, w.ring); err != nil {
		return err
	}
	if err := preloadWire(w.prod.wc, w.spec.name, w.preload); err != nil {
		return err
	}
	w.acked.Store(fedPreload)
	for _, nc := range w.nc {
		for s := 0; s < fedShards; s++ {
			if err := waitProcessed(nc, shardName(w.spec.name, s), fedPreload/fedShards, 10*time.Second); err != nil {
				return err
			}
		}
	}
	return nil
}

// measure runs the loaded slices, in which the wire producer and the
// query client run closed-loop side by side, interleaved with the
// read-back probe (see interleave).
func (w *fedWL) measure(r *run, d time.Duration) {
	m, n := map[string]float64{}, map[string]float64{}
	qms := make([]float64, 0, 1<<15)
	var qdone []int64
	w.ran = w.ran[:0]
	pr := &fedProbe{}
	interleave(d, probeDuration(r.seconds), func(before time.Duration, until time.Time) {
		var m0, n0 map[string]float64
		if r.tr != nil {
			m0, n0 = scrape(w.c), scrape(w.nc...)
			r.tr.on.Store(true)
		}
		phase := time.Now().Add(-before)
		acked := []atomic.Uint64{{}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.prod.loop([]string{w.spec.name}, phase, until, r.tr, acked, r.acct, true)
		}()
		for time.Now().Before(until) {
			q := w.queries[len(w.ran)%len(w.queries)]
			id := w.c.stamp(3 << 40)
			t0 := time.Now()
			err := doQuery(w.c, r.acct, w.spec.name, q, float64(q.h), w.spec.minLambda(), fedShards)
			t1 := time.Now()
			if r.tr != nil {
				r.tr.add(span{start: int64(t0.Sub(r.tr.base)), end: int64(t1.Sub(r.tr.base)), kind: kClientHTTP,
					node: -1, route: q.route, req: id, stream: 0})
			}
			if err != nil {
				qms = append(qms, math.Inf(1))
			} else {
				qms = append(qms, float64(t1.Sub(t0))/1e6)
				qdone = append(qdone, int64(t1.Sub(phase)))
			}
			w.ran = append(w.ran, q)
		}
		wg.Wait()
		w.acked.Add(acked[0].Load())
		if r.tr != nil {
			r.tr.on.Store(false)
			addDelta(m, m0, scrape(w.c))
			addDelta(n, n0, scrape(w.nc...))
		}
	}, func(_ time.Duration, until time.Time) {
		w.probe(r, pr, until)
	})
	if r.tr != nil {
		w.layerCounters(r, nil, m, nil, n, len(qms))
	}
	r.rep.counts["ingest_ack"] = len(pr.ack)
	r.rep.counts["ingest_ack_loaded"] = len(w.prod.ackMs)
	r.rep.counts["query"] = len(qms)
	r.rep.counts["ops"] = w.prod.frames + len(qms) + len(pr.ack)
	r.rep.set("ingest_pts_per_s", windowedRate(w.prod.doneNs, w.prod.donePt, d))
	// Under the closed-loop queries the acknowledgement times are
	// bimodal: a frame that meets a query's accumulation waits for it.
	// Their median sits between the modes, where a few per cent more
	// overlap moves it by a third, so the gated acknowledgement latency
	// is that of the probe's lone frames; the loaded percentiles stay in
	// the run record.
	r.rep.winPct("ingest_ack_p50_ms", pr.ack, 0.50)
	r.rep.winPct("ingest_ack_p99_ms", pr.ack, 0.99)
	r.rep.winPct("ingest_ack_loaded_p50_ms", w.prod.ackMs, 0.50)
	r.rep.winPct("ingest_ack_loaded_p99_ms", w.prod.ackMs, 0.99)
	r.rep.set("query_per_s", windowedRate(qdone, ones(len(qdone)), d))
	r.rep.winPct("query_p50_ms", qms, 0.50)
	r.rep.winPct("query_p99_ms", qms, 0.99)
	r.rep.counts["visible"] = len(pr.vis)
	r.rep.winPct("visible_p50_ms", pr.vis, 0.50)
	r.rep.winPct("visible_p99_ms", pr.vis, 0.99)
}

// shardWant is how many points each shard must hold once the
// coordinator acknowledged total points: frames have even sizes, so the
// round-robin split is exact.
func shardWant(total uint64) uint64 { return total / fedShards }

// fedProbe holds the read-back probe's samples across its slices.
type fedProbe struct {
	i        int // probes run so far
	ack, vis []float64
}

// probe runs read-back probes until deadline: each pushes one frame
// through the coordinator (ingest_ack_*), then reads each shard's stats
// on a replica until they show it (visible_*).
func (w *fedWL) probe(r *run, pr *fedProbe, until time.Time) {
	for ; time.Now().Before(until); pr.i++ {
		f := w.probes[pr.i%len(w.probes)]
		start, end, err := w.prod.send(f, w.spec.name)
		if !r.acct.op(err) {
			pr.ack = append(pr.ack, math.Inf(1))
			pr.vis = append(pr.vis, math.Inf(1))
			continue
		}
		pr.ack = append(pr.ack, float64(end.Sub(start))/1e6)
		want := shardWant(w.acked.Add(uint64(len(f.pts))))
		// A query reads one replica per shard, so the frame is visible
		// once one replica of each shard shows it; probes alternate the
		// replica they read.
		ok := true
		for s := 0; s < fedShards && ok; s++ {
			nc := w.nc[(pr.i+s)%len(w.nc)]
			for {
				st, err := nc.Stats(shardName(w.spec.name, s))
				if !r.acct.op(err) {
					ok = false
					break
				}
				if st.Processed >= want {
					break
				}
			}
		}
		if ok {
			pr.vis = append(pr.vis, float64(time.Since(start))/1e6)
		} else {
			pr.vis = append(pr.vis, math.Inf(1))
		}
	}
}

// finish checks every replica holds exactly its shard of the
// acknowledged points.
func (w *fedWL) finish(r *run) {
	want := shardWant(w.acked.Load())
	for _, nc := range w.nc {
		for s := 0; s < fedShards; s++ {
			st, err := nc.Stats(shardName(w.spec.name, s))
			if r.acct.op(err) {
				r.acct.check("acked_eq_processed", st.Processed == want)
			}
		}
	}
	w.down()
}

func (w *fedWL) down() {
	w.prod.wc.Close()
	w.c.close()
	w.co.close()
	for i, n := range w.nodes {
		w.nc[i].close()
		n.close()
	}
}
