package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"biasedres/internal/client"
)

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 50}, // overlap: [10,50] covers 40
		{25, 35},   // inside the union already
		{90, 120},  // clipped to [90,100]: 10
		{-5, 5},    // clipped to [0,5]: 5
		{200, 300}, // outside the parent
	}
	if got, want := selfTime(parent, children), int64(100-40-10-5); got != want {
		t.Fatalf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {0, 100}}); got != 0 {
		t.Fatalf("fully covered selfTime = %d, want 0", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		value  float64
		qUsed  float64
		capped bool
	}{
		{1000, 0.99, 990, 0.99, false}, // rank 990: exactly 10 beyond
		{999, 0.99, 989, 989.0 / 999, true},
		{20, 0.50, 10, 0.50, false}, // rank 10: 10 beyond
		{19, 0.50, 9, 9.0 / 19, true},
		{10, 0.50, 10, 1, true}, // too few for any percentile: the max
	}
	for _, c := range cases {
		p := percentile(seq(c.n), c.q)
		if p.Value != c.value || math.Abs(p.Q-c.qUsed) > 1e-12 || p.Capped != c.capped || p.N != c.n {
			t.Errorf("percentile(n=%d, q=%v) = %+v, want value %v q %v capped %v", c.n, c.q, p, c.value, c.qUsed, c.capped)
		}
		if !p.Capped && c.n-int(math.Ceil(p.Q*float64(c.n))) < minTail {
			t.Errorf("n=%d q=%v: fewer than %d samples beyond", c.n, c.q, minTail)
		}
	}
	if p := percentile(nil, 0.5); !p.Capped || p.N != 0 {
		t.Errorf("empty percentile = %+v", p)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	a := newAccount()
	a.op(nil)
	a.op(nil)
	a.op(&client.APIError{StatusCode: 429})                                            // backpressure
	a.op(fmt.Errorf("push: %w", &client.APIError{StatusCode: 503}))                    // non-2xx
	a.op(errors.New("wire: frame of 256 points still backpressured after 8 attempts")) // NACK-exhausted
	a.op(&client.WireError{Msg: "stream not found"})
	a.check("count_within_z", true)
	a.check("count_within_z", false)
	a.fail("not_visible")

	attempted, failed, frac := a.totals()
	if attempted != 9 || failed != 6 {
		t.Fatalf("attempted %d failed %d, want 9 and 6", attempted, failed)
	}
	if math.Abs(frac-6.0/9) > 1e-12 {
		t.Fatalf("failed_frac %v, want %v", frac, 6.0/9)
	}
	want := map[string]int64{"http_429": 1, "http_503": 1, "wire_nack_exhausted": 1, "wire_error": 1,
		"check:count_within_z": 1, "not_visible": 1}
	got := a.kinds()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("kind %s = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("kinds %v, want %v", got, want)
	}
}

func TestCounterDeltaParsing(t *testing.T) {
	before := promSeries(`# HELP biasedres_wire_frames_total Frames.
# TYPE biasedres_wire_frames_total counter
biasedres_wire_frames_total 100
biasedres_wire_frames_total_other 7
biasedres_snapshot_cache_hits_total{stream="a"} 10
biasedres_snapshot_cache_hits_total{stream="b"} 5
biasedres_http_request_seconds_bucket{route="GET /metrics",le="0.005"} 3
`)
	after := promSeries(`biasedres_wire_frames_total 250
biasedres_wire_frames_total_other 9
biasedres_snapshot_cache_hits_total{stream="a"} 40
biasedres_snapshot_cache_hits_total{stream="b"} 5
biasedres_snapshot_cache_hits_total{stream="c"} 2
biasedres_http_request_seconds_bucket{route="GET /metrics",le="0.005"} 4
`)
	if d := counterDelta(before, after, "biasedres_wire_frames_total"); d != 150 {
		t.Errorf("frames delta %v, want 150 (a longer family name must not match)", d)
	}
	if d := counterDelta(before, after, "biasedres_snapshot_cache_hits_total"); d != 32 {
		t.Errorf("hits delta %v, want 32 summed over streams, new stream included", d)
	}
	if d := counterDelta(before, after, "biasedres_absent_total"); d != 0 {
		t.Errorf("absent family delta %v, want 0", d)
	}
	// A counter that went backwards was reset: count from zero.
	if d := counterDelta(after, before, "biasedres_wire_frames_total"); d != 100 {
		t.Errorf("reset delta %v, want 100", d)
	}
	if v := family(after, `biasedres_http_request_seconds_bucket`); v != 4 {
		t.Errorf("labelled series with spaces in labels parsed as %v, want 4", v)
	}
	// Deltas summed over two slices, with traffic between them that
	// belongs to neither.
	later := promSeries(`biasedres_wire_frames_total 300
biasedres_snapshot_cache_hits_total{stream="a"} 45
`)
	last := promSeries(`biasedres_wire_frames_total 310
biasedres_snapshot_cache_hits_total{stream="a"} 46
`)
	acc := map[string]float64{}
	addDelta(acc, before, after)
	addDelta(acc, later, last)
	if d := counterDelta(nil, acc, "biasedres_wire_frames_total"); d != 160 {
		t.Errorf("frames over two slices %v, want 150+10", d)
	}
	if d := counterDelta(nil, acc, "biasedres_snapshot_cache_hits_total"); d != 33 {
		t.Errorf("hits over two slices %v, want 32+1", d)
	}
}

func TestInterleaveSplitsBothPhases(t *testing.T) {
	d, pd := 50*time.Millisecond, 20*time.Millisecond
	var kinds []string
	var befores, lengths []time.Duration
	record := func(kind string) func(time.Duration, time.Time) {
		return func(before time.Duration, until time.Time) {
			kinds = append(kinds, kind)
			befores = append(befores, before)
			lengths = append(lengths, time.Until(until))
		}
	}
	interleave(d, pd, record("loaded"), record("probe"))
	if len(kinds) != 2*phaseSlices {
		t.Fatalf("%d slices, want %d", len(kinds), 2*phaseSlices)
	}
	var sum [2]time.Duration
	for i, k := range kinds {
		total, want := d, "loaded"
		if i%2 == 1 {
			total, want = pd, "probe"
		}
		if k != want {
			t.Fatalf("slice %d is %s, want %s: the kinds alternate", i, k, want)
		}
		if b := total * time.Duration(i/2) / phaseSlices; befores[i] != b {
			t.Errorf("slice %d starts its clock at %v, want %v", i, befores[i], b)
		}
		// A slice's deadline lies its share of the total ahead.
		if share := total / phaseSlices; lengths[i] > share || lengths[i] < share-5*time.Millisecond {
			t.Errorf("slice %d lasts %v, want about %v", i, lengths[i], share)
		}
		sum[i%2] += lengths[i]
	}
	if sum[0] > d || sum[1] > pd {
		t.Errorf("slices last %v and %v in all, want at most %v and %v", sum[0], sum[1], d, pd)
	}
}

func TestLemma41FloorMatchesDirectSum(t *testing.T) {
	for _, c := range []struct {
		lambda float64
		h      uint64
		shards int
	}{{1e-4, 1000, 1}, {1e-3, 5000, 1}, {1e-4, 20000, 2}} {
		per := int((c.h + uint64(c.shards) - 1) / uint64(c.shards))
		var want float64
		for a := 0; a < per; a++ {
			want += math.Exp(c.lambda*float64(a)) - 1
		}
		want *= float64(c.shards)
		if got := lemma41Floor(c.lambda, c.h, c.shards); math.Abs(got-want) > 1e-6*want+1e-9 {
			t.Errorf("lemma41Floor(%v, %d, %d) = %v, want %v", c.lambda, c.h, c.shards, got, want)
		}
	}
}

func TestMatchContainedPicksHolderOfTheLock(t *testing.T) {
	// Two frames of one stream overlap; the journal write happens while
	// the first-ending one holds the stream lock.
	parents := []span{
		{start: 0, end: 100, stream: 1},
		{start: 10, end: 60, stream: 1},
		{start: 20, end: 80, stream: 2},
	}
	children := []span{
		{start: 30, end: 40, stream: 1},
		{start: 70, end: 75, stream: 1},
		{start: 30, end: 40, stream: 3},
	}
	got := matchContained(parents, children, streamKey)
	want := []int{1, 0, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matchContained = %v, want %v", got, want)
		}
	}
}
