package main

import (
	"fmt"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/core"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/wire"
	"biasedres/internal/xrand"
)

// The public kernels of core, query and the wire codec have no seam
// inside the server, so the traced run times them by replaying the run's
// own recorded inputs through them, on samplers built with the core
// constructors and each stream's create parameters.

// replayBudget caps the timed work of one replay.
const replayBudget = 300 * time.Millisecond

// buildSampler mirrors the server's sampler factory for the kinds the
// workloads create.
func buildSampler(spec streamSpec, seed uint64) (core.Sampler, error) {
	rng := xrand.New(seed)
	c := spec.cfg
	switch spec.kind {
	case "variable":
		return core.NewVariableReservoir(c.Lambda, c.Capacity, rng)
	case "rtbs":
		return core.NewRTBSReservoir(c.Lambda, c.Capacity, rng)
	case "ttbs":
		return core.NewTTBSReservoir(c.Lambda, c.Capacity, rng)
	case "tiered":
		return core.NewTieredReservoir(c.Lambda, 8, c.Tiers, rng,
			func(_ int, lambda float64, rng *xrand.Source) (core.PersistentSampler, error) {
				return core.NewVariableReservoir(lambda, c.Capacity, rng)
			})
	}
	return nil, fmt.Errorf("no replay sampler for kind %q", spec.kind)
}

// replayStream is one stream's replay sampler and arrival counter.
type replayStream struct {
	spec streamSpec
	s    core.Sampler
	next uint64
}

func newReplayStream(spec streamSpec, seed uint64) (*replayStream, error) {
	s, err := buildSampler(spec, seed)
	if err != nil {
		return nil, err
	}
	return &replayStream{spec: spec, s: s}, nil
}

// batch converts client points into an indexed sampler batch, as the
// server does on ingest.
func (rs *replayStream) batch(pts []client.Point) []stream.Point {
	out := make([]stream.Point, len(pts))
	for i, p := range pts {
		rs.next++
		label := -1
		if p.Label != nil {
			label = *p.Label
		}
		out[i] = stream.Point{Index: rs.next, Values: p.Values, Label: label, Weight: 1}
	}
	return out
}

// apply feeds batches untimed.
func (rs *replayStream) apply(batches [][]client.Point) {
	for _, b := range batches {
		core.AddBatch(rs.s, rs.batch(b))
	}
}

// timeApply times core.AddBatch over batches (within replayBudget) and
// returns the points applied and the time taken.
func (rs *replayStream) timeApply(batches [][]client.Point) (pts int, d time.Duration) {
	for _, b := range batches {
		sb := rs.batch(b)
		t0 := time.Now()
		core.AddBatch(rs.s, sb)
		d += time.Since(t0)
		pts += len(sb)
		if d > replayBudget {
			break
		}
	}
	return pts, d
}

// snapshotFor builds the snapshot a query of horizon h is served from:
// the routed tier's for a ladder, the stream's own otherwise.
func (rs *replayStream) snapshotFor(h uint64) *core.Snapshot {
	if tr, ok := rs.s.(*core.TieredReservoir); ok {
		return core.BuildSnapshot(tr.Tier(tr.SelectTier(h)))
	}
	return core.SnapshotOf(rs.s)
}

// rebuildNs times a snapshot rebuild: the median of several
// core.BuildSnapshot calls (over every tier of a ladder, averaged).
func (rs *replayStream) rebuildNs() float64 {
	samplers := []core.Sampler{rs.s}
	if tr, ok := rs.s.(*core.TieredReservoir); ok {
		samplers = samplers[:0]
		for i := 0; i < tr.NumTiers(); i++ {
			samplers = append(samplers, tr.Tier(i))
		}
	}
	var xs []float64
	for rep := 0; rep < 21; rep++ {
		var total time.Duration
		for _, s := range samplers {
			t0 := time.Now()
			core.BuildSnapshot(s)
			total += time.Since(t0)
		}
		xs = append(xs, float64(total)/float64(len(samplers)))
	}
	return median(xs)
}

// kernelReplay times each query route's kernel over the recorded
// queries, on the replay streams; the result is ns per resident point
// walked. hScale divides horizons (federated shards each answer h/2).
func kernelReplay(r *run, streams []*replayStream, ran []qspec, dim int, hScale uint64) {
	type acc struct {
		d   time.Duration
		pts int
	}
	accs := map[uint8]*acc{}
	var total time.Duration
	snaps := map[[2]uint64]*core.Snapshot{}
	for _, q := range ran {
		if total > replayBudget {
			break
		}
		rs := streams[q.stream]
		if rs == nil {
			continue
		}
		h := (q.h + hScale - 1) / hScale
		key := [2]uint64{uint64(q.stream), h}
		snap, ok := snaps[key]
		if !ok {
			snap = rs.snapshotFor(h)
			snaps[key] = snap
		}
		var rect query.Rect
		if q.route == rSelectivity {
			var err error
			if rect, err = query.ParseRect(q.dims, q.lo, q.hi); !r.acct.op(err) {
				continue
			}
		}
		t0 := time.Now()
		switch q.route {
		case rCount, rAverage, rClassdist:
			query.Accumulate(snap, h, dim)
		case rSelectivity:
			query.AccumulateRange(snap, h, dim, &rect)
		case rQuantile:
			_, _ = query.QuantileOn(snap, h, q.dim, q.q)
		case rRange:
			end := snap.T + 1
			_, _ = query.AccumulateBuckets(snap, q.start, end, query.GranularityFor(end-q.start, 200), dim)
		}
		d := time.Since(t0)
		total += d
		a := accs[q.route]
		if a == nil {
			a = &acc{}
			accs[q.route] = a
		}
		a.d += d
		a.pts += snap.Len()
	}
	for route, a := range accs {
		r.rep.set("query.kernel_ns_per_pt."+routeNames[route], ratio(float64(a.d), float64(a.pts)))
	}
}

// codecReplay times wire.AppendFrame and wire.DecodeFrame over the
// run's recorded frames.
func codecReplay(r *run, frames []frameIn, streamName func(int) string) {
	if len(frames) == 0 {
		return
	}
	frames = frames[:min(len(frames), 4096)]
	packed := make([]wire.Frame, len(frames))
	for i, f := range frames {
		dim := len(f.pts[0].Values)
		wf := wire.Frame{Dim: dim, Count: len(f.pts), Values: make([]float64, 0, dim*len(f.pts)),
			Labels: make([]int32, 0, len(f.pts))}
		for _, p := range f.pts {
			wf.Values = append(wf.Values, p.Values...)
			wf.Labels = append(wf.Labels, int32(*p.Label))
		}
		packed[i] = wf
	}
	encoded := make([][]byte, len(frames))
	var buf []byte
	var encD time.Duration
	pts := 0
	for i := range packed {
		t0 := time.Now()
		var err error
		buf, err = wire.AppendFrame(buf[:0], streamName(frames[i].stream), &packed[i])
		encD += time.Since(t0)
		if err != nil {
			r.acct.check("codec_replay_encode", false)
			return
		}
		encoded[i] = append([]byte(nil), buf...)
		pts += packed[i].Count
	}
	var out wire.Frame
	var decD time.Duration
	for _, b := range encoded {
		t0 := time.Now()
		_, err := wire.DecodeFrame(b, &out)
		decD += time.Since(t0)
		if err != nil {
			r.acct.check("codec_replay_decode", false)
			return
		}
	}
	r.rep.set("wire.encode_ns_per_pt", ratio(float64(encD), float64(pts)))
	r.rep.set("wire.decode_ns_per_pt", ratio(float64(decD), float64(pts)))
}
