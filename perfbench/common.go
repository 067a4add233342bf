package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"biasedres/internal/client"
)

// samplerKinds are the sampler families the workloads create, in metric
// order; "tiered" is a four-tier variable ladder.
var samplerKinds = []string{"variable", "rtbs", "ttbs", "tiered"}

// streamSpec is one stream a workload creates.
type streamSpec struct {
	name string
	kind string
	cfg  client.StreamConfig
}

func variableStream(name string, lambda float64, capacity int) streamSpec {
	return streamSpec{name, "variable", client.StreamConfig{Policy: "variable", Lambda: lambda, Capacity: capacity}}
}

func rtbsStream(name string, lambda float64, capacity int) streamSpec {
	return streamSpec{name, "rtbs", client.StreamConfig{Policy: "rtbs", Lambda: lambda, Capacity: capacity}}
}

func ttbsStream(name string, lambda float64, capacity int) streamSpec {
	return streamSpec{name, "ttbs", client.StreamConfig{Policy: "ttbs", Lambda: lambda, Capacity: capacity}}
}

// ladderStream is a four-tier variable ladder at the server's default
// tier ratio (8); capacity is per tier.
func ladderStream(name string, lambda float64, capacity int) streamSpec {
	return streamSpec{name, "tiered", client.StreamConfig{Policy: "variable", Lambda: lambda, Capacity: capacity, Tiers: 4}}
}

// minLambda is the smallest decay rate among the stream's reservoirs:
// the deepest tier's for a ladder.
func (s streamSpec) minLambda() float64 {
	return s.cfg.Lambda / math.Pow(8, float64(max(s.cfg.Tiers, 1)-1))
}

func names(specs []streamSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// frameIn is one pre-generated wire frame.
type frameIn struct {
	stream int
	pts    []client.Point
	fp     uint64
}

// frames draws n frames of size points each, choosing streams with pick.
func (g *gen) frames(n, size, dim int, pick func() int) []frameIn {
	out := make([]frameIn, n)
	for i := range out {
		s := pick()
		pts := g.points(size, dim)
		out[i] = frameIn{stream: s, pts: pts, fp: fingerprint(pts[0].Values)}
	}
	return out
}

// chunk splits pts into batches of at most size points.
func chunk(pts []client.Point, size int) [][]client.Point {
	var out [][]client.Point
	for len(pts) > 0 {
		n := min(size, len(pts))
		out = append(out, pts[:n])
		pts = pts[n:]
	}
	return out
}

// qspec is one pre-generated query.
type qspec struct {
	stream int
	route  uint8
	h      uint64
	dim    int     // quantile dimension
	q      float64 // quantile level
	dims   string  // selectivity rect
	lo, hi string
	start  uint64 // range start (the range ends at the newest point)
}

// zCheck bounds a count answer: it must lie within zCheck of its own
// Lemma 4.1 standard deviation of the true horizon count.
const zCheck = 5.0

// lemma41Floor is a lower bound on the Lemma 4.1 variance Σ (1−p)/p of
// a Horvitz–Thompson count over the last h arrivals of a stream whose
// inclusion probabilities obey p(r,t) ≤ e^{−λ(t−r)}, split over shards
// equal shards: Σ_{a<h} (e^{λa} − 1) per shard. The variance an answer
// reports is estimated from the sample alone and falls far below this
// once h ≫ 1/λ, when the sample holds almost none of the horizon's
// oldest points; the check uses the larger of the two.
func lemma41Floor(lambda float64, h uint64, shards int) float64 {
	per := float64((h + uint64(shards) - 1) / uint64(shards))
	v := math.Expm1(lambda*per)/math.Expm1(lambda) - per
	return float64(shards) * max(v, 0)
}

// doQuery runs q against the named stream over c and checks the answer.
// trueCount is the exact number of points in the query's horizon;
// lambda is the smallest decay rate that can serve the query and shards
// the number of shards the horizon is split over.
func doQuery(c *conn, acct *account, name string, q qspec, trueCount, lambda float64, shards int) error {
	var err error
	switch q.route {
	case rCount:
		var est, variance float64
		if est, variance, err = c.Count(name, q.h); err == nil {
			sd := math.Sqrt(max(variance, lemma41Floor(lambda, q.h, shards)))
			tol := zCheck*sd + 1e-9*trueCount + 1e-9
			if !acct.check("count_within_z", math.Abs(est-trueCount) <= tol) {
				acct.detail("count %s h=%d: estimate %g, variance %g, true %g", name, q.h, est, variance, trueCount)
			}
		}
	case rAverage:
		var avg []float64
		if avg, err = c.Average(name, q.h); err == nil {
			ok := len(avg) > 0
			for _, v := range avg {
				ok = ok && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
			acct.check("average_finite", ok)
		}
	case rClassdist:
		var dist map[int]float64
		if dist, err = c.ClassDistribution(name, q.h); err == nil {
			var sum float64
			for _, v := range dist {
				sum += v
			}
			acct.check("classdist_sums_to_1", math.Abs(sum-1) <= 1e-6)
		}
	case rSelectivity:
		var sel float64
		if sel, err = c.selectivity(name, q.h, q.dims, q.lo, q.hi); err == nil {
			acct.check("selectivity_in_0_1", sel >= 0 && sel <= 1+1e-9)
		}
	case rQuantile:
		var v float64
		if v, err = c.Quantile(name, q.h, q.dim, q.q); err == nil {
			acct.check("quantile_finite", !math.IsNaN(v) && !math.IsInf(v, 0))
		}
	case rRange:
		var res *client.RangeResult
		if res, err = c.RangeContext(context.Background(), name, q.start, 0, 0); err == nil {
			acct.check("range_has_buckets", len(res.Buckets) > 0)
		}
	default:
		return fmt.Errorf("unknown query route %d", q.route)
	}
	if err == nil && c.rt.checkPartial {
		acct.check("federated_not_partial", !c.rt.partial)
	}
	acct.op(err)
	return err
}

// horizonQueries draws n queries over the given streams: route from
// routes (range only on streams where rangeOK), horizon from horizons.
func (g *gen) queries(n int, nStreams int, routes []uint8, rangeOK func(int) bool, horizons []uint64, dim int, rangeEnd uint64) []qspec {
	out := make([]qspec, 0, n)
	for len(out) < n {
		q := qspec{stream: g.intN(nStreams), route: routes[g.intN(len(routes))], h: horizons[g.intN(len(horizons))]}
		switch q.route {
		case rRange:
			if !rangeOK(q.stream) {
				continue
			}
			q.start = rangeEnd - q.h + 1
		case rQuantile:
			q.dim = g.intN(dim)
			q.q = []float64{0.1, 0.5, 0.9}[g.intN(3)]
		case rSelectivity:
			d := g.intN(dim)
			lo := float64(g.intN(6))
			q.dims = strconv.Itoa(d)
			q.lo = strconv.FormatFloat(lo, 'f', -1, 64)
			q.hi = strconv.FormatFloat(lo+4, 'f', -1, 64)
		}
		out = append(out, q)
	}
	return out
}

// producer is one closed-loop wire client: one frame in flight, the
// next sent as soon as the previous one is acknowledged.
type producer struct {
	wc     *client.WireConn
	ring   []frameIn
	ackMs  []float64
	doneNs []int64   // acknowledgement times, ns since the phase began
	donePt []float64 // points acknowledged at each doneNs
	addNs  int64     // time loop spent buffering points with WireConn.Add
	frames int       // frames attempted in the measured phase
	points int       // points acknowledged
}

// wireFlushSize keeps WireConn from flushing on its own: the producer
// adds one frame's points and then calls Flush, so Flush is exactly one
// frame's round trip.
const wireFlushSize = 1 << 20

func dialProducer(addr string, ring []frameIn) (*producer, error) {
	wc, err := client.DialWire(addr, client.WireConnConfig{FlushSize: wireFlushSize})
	if err != nil {
		return nil, err
	}
	// Sized for a long run so appends do not allocate while measuring.
	const samples = 1 << 17
	return &producer{wc: wc, ring: ring, ackMs: make([]float64, 0, samples),
		doneNs: make([]int64, 0, samples), donePt: make([]float64, 0, samples)}, nil
}

// send pushes one frame to the named stream and returns the Flush span.
func (p *producer) send(f frameIn, name string) (start, end time.Time, err error) {
	t0 := time.Now()
	for _, pt := range f.pts {
		if err = p.wc.Add(name, pt); err != nil {
			return t0, time.Now(), err
		}
	}
	start = time.Now()
	err = p.wc.Flush()
	return start, time.Now(), err
}

// loop runs the closed loop until deadline, timing acknowledgements
// from phase; with keep false it records no samples. Successive calls
// carry on through the ring.
func (p *producer) loop(names []string, phase, deadline time.Time, tr *tracer, acked []atomic.Uint64, acct *account, keep bool) {
	for {
		if time.Now().After(deadline) {
			return
		}
		f := p.ring[p.frames%len(p.ring)]
		t0 := time.Now()
		start, end, err := p.send(f, names[f.stream])
		p.addNs += int64(start.Sub(t0))
		p.frames++
		if !acct.op(err) {
			if keep {
				p.ackMs = append(p.ackMs, math.Inf(1))
			}
			continue
		}
		if keep {
			p.ackMs = append(p.ackMs, float64(end.Sub(start))/1e6)
			p.doneNs = append(p.doneNs, int64(end.Sub(phase)))
			p.donePt = append(p.donePt, float64(len(f.pts)))
		}
		p.points += len(f.pts)
		acked[f.stream].Add(uint64(len(f.pts)))
		if tr != nil {
			tr.add(span{start: int64(start.Sub(tr.base)), end: int64(end.Sub(tr.base)), kind: kClientFlush,
				node: -1, stream: int16(f.stream), fp: f.fp, n: int64(len(f.pts))})
		}
	}
}

// sent returns the frames the producer sent, in order.
func (p *producer) sent() []frameIn {
	out := make([]frameIn, p.frames)
	for i := range out {
		out[i] = p.ring[i%len(p.ring)]
	}
	return out
}

// Probe slices. The workloads whose read metrics come from a read-back
// probe (ingest_wire_durable, federated_replicated) cut the measured
// phase into phaseSlices loaded slices, each followed by a probe slice.
// A shared host's speed drifts over tens of seconds; spread over the
// whole run, the probe samples see the same drift as the loaded ones
// rather than that of the run's last seconds alone.
const phaseSlices = 10

// probeDuration is how long the probe slices of a run last in all.
func probeDuration(seconds int) time.Duration {
	return max(2*time.Second, time.Duration(seconds)*time.Second/4)
}

// interleave runs phaseSlices loaded slices lasting d in all, each
// followed by a probe slice; the probe slices last pd in all. Each call
// gets the time its kind of slice ran before it and its own deadline,
// so samples can be timed on a clock that counts that kind alone: the
// clock reads 0 at time.Now().Add(-before) when the slice begins.
func interleave(d, pd time.Duration, loaded, probe func(before time.Duration, until time.Time)) {
	part := func(total time.Duration, i int) time.Duration { return total * time.Duration(i) / phaseSlices }
	for i := 0; i < phaseSlices; i++ {
		loaded(part(d, i), time.Now().Add(part(d, i+1)-part(d, i)))
		probe(part(pd, i), time.Now().Add(part(pd, i+1)-part(pd, i)))
	}
}

// preloadWire pushes batches to the named stream over wc.
func preloadWire(wc *client.WireConn, name string, batches [][]client.Point) error {
	for _, b := range batches {
		if err := wc.Push(name, b); err != nil {
			return fmt.Errorf("preloading %s: %w", name, err)
		}
	}
	return nil
}
