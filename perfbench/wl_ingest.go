package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/client"
)

// ingestWL is ingest_wire_durable: nproc closed-loop wire producers, one
// 256-point frame each in flight, into eight durable streams on the sync
// lane; stream choice is Zipf-skewed so one variable stream takes about
// half the frames.
type ingestWL struct {
	seed    uint64
	specs   []streamSpec
	rings   [][]frameIn
	preload [][][]client.Point // per stream: batches
	probes  []frameIn
	probeQ  []qspec

	dir   string
	n     *node
	c     *conn
	prods []*producer
	acked []atomic.Uint64 // acknowledged points per stream, preload included
}

const (
	ingestDim        = 4
	ingestFrame      = 256
	ingestRing       = 512 // frames per producer, cycled
	ingestPreload    = 16384
	ingestProbeRing  = 64
	preloadFrameSize = 4096
)

func (w *ingestWL) streamNames() []string { return names(w.specs) }
func (w *ingestWL) primary() string       { return "ingest_pts_per_s" }

func (w *ingestWL) generate(seed uint64, seconds int) string {
	w.seed = seed
	// Zipf rank order: the first variable stream is the hot one.
	w.specs = []streamSpec{
		variableStream("v0", 1e-4, 10000),
		rtbsStream("r0", 1e-4, 5000),
		ladderStream("l0", 1e-3, 1000),
		variableStream("v1", 1e-4, 10000),
		ttbsStream("t0", 1e-4, 5000),
		rtbsStream("r1", 1e-4, 5000),
		ladderStream("l1", 1e-3, 1000),
		variableStream("v2", 1e-4, 10000),
	}
	var digests []string
	nprod := runtime.NumCPU()
	for p := 0; p < nprod; p++ {
		g := newGen(seed, 100+uint64(p))
		w.rings = append(w.rings, g.frames(ingestRing, ingestFrame, ingestDim, g.zipf(len(w.specs), 1.5)))
		digests = append(digests, g.digest())
	}
	g := newGen(seed, 200)
	w.preload = make([][][]client.Point, len(w.specs))
	for i := range w.specs {
		w.preload[i] = chunk(g.points(ingestPreload, ingestDim), preloadFrameSize)
	}
	rr := 0
	w.probes = g.frames(ingestProbeRing, ingestFrame, ingestDim, func() int { rr++; return rr % len(w.specs) })
	w.probeQ = g.queries(queryMixSize, len(w.specs), []uint8{rCount, rAverage, rClassdist},
		func(int) bool { return false }, []uint64{1000, 10000}, ingestDim, 0)
	return combineDigests(append(digests, g.digest())...)
}

func (w *ingestWL) up(r *run, tr *tracer) error {
	// One data directory, emptied first: set-ups run one at a time, and
	// a run that was killed leaves nothing behind for long.
	w.dir = filepath.Join(r.out, "tmp", "durable")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	var err error
	if w.n, err = startNode(nodeConfig{seed: w.seed, dataDir: w.dir}, tr, 0); err != nil {
		return err
	}
	w.c = newConn(w.n.url, false)
	if err := waitReady(w.c, 10*time.Second); err != nil {
		return err
	}
	for _, s := range w.specs {
		if err := w.c.CreateStream(s.name, s.cfg); err != nil {
			return fmt.Errorf("creating %s: %w", s.name, err)
		}
	}
	w.prods = w.prods[:0]
	for _, ring := range w.rings {
		p, err := dialProducer(w.n.wireAddr, ring)
		if err != nil {
			return err
		}
		w.prods = append(w.prods, p)
	}
	w.acked = make([]atomic.Uint64, len(w.specs))
	for i, s := range w.specs {
		if err := preloadWire(w.prods[0].wc, s.name, w.preload[i]); err != nil {
			return err
		}
		w.acked[i].Store(ingestPreload)
	}
	for _, s := range w.specs {
		if err := waitProcessed(w.c, s.name, ingestPreload, 10*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the producers closed-loop for d in all, interleaved with
// the read-back probe (see interleave). In a probe slice producer 0
// probes while the others keep loading: each probe pushes one frame,
// reads the stream's stats until they show it (visible_*), then runs
// one query (query_*). The loaded slices carry no reads, so this is
// where the read metrics of this workload come from.
func (w *ingestWL) measure(r *run, d time.Duration) {
	names := w.streamNames()
	m := map[string]float64{}
	pr := &ingestProbe{}
	pd := probeDuration(r.seconds)
	interleave(d, pd, func(before time.Duration, until time.Time) {
		var m0 map[string]float64
		if r.tr != nil {
			m0 = scrape(w.c)
			r.tr.on.Store(true)
		}
		phase := time.Now().Add(-before)
		var wg sync.WaitGroup
		for _, p := range w.prods {
			wg.Add(1)
			go func(p *producer) {
				defer wg.Done()
				p.loop(names, phase, until, r.tr, w.acked, r.acct, true)
			}(p)
		}
		wg.Wait()
		if r.tr != nil {
			r.tr.on.Store(false)
			addDelta(m, m0, scrape(w.c))
		}
	}, func(before time.Duration, until time.Time) {
		// The other producers keep the node loaded, unrecorded: a lone
		// probe on idle processors times their wake-ups, which a shared
		// host stretches by half in its busy minutes.
		var wg sync.WaitGroup
		for _, p := range w.prods[1:] {
			wg.Add(1)
			go func(p *producer) {
				defer wg.Done()
				p.loop(names, time.Time{}, until, nil, w.acked, r.acct, false)
			}(p)
		}
		w.probe(r, pr, time.Now().Add(-before), until)
		wg.Wait()
	})
	if r.tr != nil {
		w.layerCounters(r, nil, m)
	}
	var acks, donePt []float64
	var doneNs []int64
	frames := 0
	for _, p := range w.prods {
		acks = append(acks, p.ackMs...)
		doneNs = append(doneNs, p.doneNs...)
		donePt = append(donePt, p.donePt...)
		frames += p.frames
	}
	r.rep.counts["ingest_ack"] = len(acks)
	r.rep.counts["ops"] = frames + 2*len(pr.vis)
	r.rep.set("ingest_pts_per_s", windowedRate(doneNs, donePt, d))
	r.rep.winPct("ingest_ack_p50_ms", acks, 0.50)
	r.rep.winPct("ingest_ack_p99_ms", acks, 0.99)

	r.rep.counts["visible"] = len(pr.vis)
	r.rep.counts["query"] = len(pr.qms)
	r.rep.winPct("visible_p50_ms", pr.vis, 0.50)
	r.rep.winPct("visible_p99_ms", pr.vis, 0.99)
	// Queries alternate with writes here, so the query rate counts query
	// time alone: the median over 1 s windows of queries per second of
	// query latency.
	r.rep.set("query_per_s", windowedRatio(pr.qdone, ones(len(pr.qdone)), pr.qsec, pd))
	r.rep.winPct("query_p50_ms", pr.qms, 0.50)
	r.rep.winPct("query_p99_ms", pr.qms, 0.99)
}

// ingestProbe holds the read-back probe's samples across its slices.
type ingestProbe struct {
	i              int // probes run so far
	vis, qms, qsec []float64
	qdone          []int64 // query completion times on the probe clock
}

// probe runs read-back probes until deadline; phase is when the probe
// clock read 0.
func (w *ingestWL) probe(r *run, pr *ingestProbe, phase, until time.Time) {
	p := w.prods[0]
	for ; time.Now().Before(until); pr.i++ {
		f := w.probes[pr.i%len(w.probes)]
		name := w.specs[f.stream].name
		start, _, err := p.send(f, name)
		if !r.acct.op(err) {
			pr.vis = append(pr.vis, math.Inf(1))
			continue
		}
		want := w.acked[f.stream].Add(uint64(len(f.pts)))
		for {
			st, err := w.c.Stats(name)
			if !r.acct.op(err) {
				pr.vis = append(pr.vis, math.Inf(1))
				break
			}
			if st.Processed >= want {
				pr.vis = append(pr.vis, float64(time.Since(start))/1e6)
				break
			}
		}
		q := w.probeQ[pr.i%len(w.probeQ)]
		q.stream = f.stream
		t0 := time.Now()
		err = doQuery(w.c, r.acct, name, q, float64(q.h), w.specs[f.stream].minLambda(), 1)
		t1 := time.Now()
		if err != nil {
			pr.qms = append(pr.qms, math.Inf(1))
			continue
		}
		pr.qms = append(pr.qms, float64(t1.Sub(t0))/1e6)
		pr.qdone = append(pr.qdone, int64(t1.Sub(phase)))
		pr.qsec = append(pr.qsec, t1.Sub(t0).Seconds())
	}
}

// finish checks every acknowledged point is in the sampler, closes the
// node and checks again after recovering from the data directory.
func (w *ingestWL) finish(r *run) {
	w.checkProcessed(r, w.c, "acked_eq_processed")
	r.acct.check("durable_write_errors_zero", w.n.store.StatsNow().WriteErrors == 0)
	w.closeNode()

	// Restart from the data directory: every acknowledged point must
	// survive a clean shutdown. The restart time is durable.recover_ns.
	t0 := time.Now()
	n, err := startNode(nodeConfig{seed: w.seed, dataDir: w.dir}, nil, 0)
	if !r.acct.op(err) {
		return
	}
	c := newConn(n.url, false)
	if r.acct.op(waitReady(c, 10*time.Second)) {
		r.rep.set("durable.recover_ns", float64(time.Since(t0)))
		w.checkProcessed(r, c, "acked_eq_processed_after_restart")
	}
	c.close()
	n.close()
	os.RemoveAll(w.dir)
}

func (w *ingestWL) checkProcessed(r *run, c *conn, kind string) {
	for i, s := range w.specs {
		st, err := c.Stats(s.name)
		if r.acct.op(err) {
			r.acct.check(kind, st.Processed == w.acked[i].Load())
		}
	}
}

func (w *ingestWL) closeNode() {
	for _, p := range w.prods {
		p.wc.Close()
	}
	w.c.close()
	w.n.close()
}

func (w *ingestWL) down() {
	w.closeNode()
	os.RemoveAll(w.dir)
}
