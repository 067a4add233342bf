package query

import (
	"fmt"
	"strconv"
	"strings"

	"biasedres/internal/core"
)

// This file is the cross-shard half of the query engine: the fused
// accumulator of fused.go made mergeable and wire-portable, so a
// federation coordinator can scatter a query to N reservoird nodes,
// gather one Accum per shard, and sum them.
//
// The merge is exact, not approximate: the paper's Section-4 estimator
// H(t) = Σ I(r,t)·c_r·h(X_r)/p(r,t) is a sum over points, each weighted by
// an inclusion probability that depends only on its own shard's stream. A
// disjoint union of shard streams therefore satisfies
//
//	H_union = Σ_shards H_shard
//
// term by term, and the Lemma 4.1 variance — itself a per-point sum, with
// cross-point covariances that vanish across independently sampled shards
// — adds the same way. Every Accum field is such a sum (Count, CountVar,
// Sums, per-class counts/variances/sums, the range numerator), so Merge is
// plain addition and any statistic derived from the merged accumulator
// (Average, Distribution, Selectivity, ...) equals the statistic computed
// from the union stream's own accumulator.

// AccumulateRange is Accumulate plus the range-selectivity numerator: the
// same single fused walk, additionally accumulating the Horvitz–Thompson
// count (and Lemma 4.1 variance) of the in-horizon points inside rect when
// rect is non-nil. Accumulate delegates here, so there is exactly one walk
// implementation.
func AccumulateRange(snap *core.Snapshot, h uint64, dim int, rect *Rect) *Accum {
	a := &Accum{T: snap.T, Horizon: h, Dim: dim, Classes: make(map[int]*ClassAcc)}
	if dim > 0 {
		a.Sums = make([]float64, dim)
	}
	a.HasRange = rect != nil
	// Labels in [-1, 63] find their class through dense[label+1] instead
	// of a map lookup per point; other labels use the map alone.
	var dense [65]*ClassAcc
	t := snap.T
	for i := range snap.Points {
		p := &snap.Points[i]
		if p.Index == 0 || p.Index > t {
			continue
		}
		if h > 0 && t-p.Index >= h {
			continue
		}
		pr := snap.Probs[i]
		if pr <= 0 {
			continue
		}
		w := 1 / pr
		a.Count += w
		a.CountVar += (w - 1) / pr
		for d := 0; d < dim && d < len(p.Values); d++ {
			a.Sums[d] += p.Values[d] / pr
		}
		if rect != nil && rect.Contains(*p) {
			a.RangeNum += w
			a.RangeVar += (w - 1) / pr
		}
		slot := uint(p.Label + 1)
		var ca *ClassAcc
		if slot < uint(len(dense)) {
			ca = dense[slot]
		} else {
			ca = a.Classes[p.Label]
		}
		if ca == nil {
			ca = &ClassAcc{}
			if dim > 0 {
				ca.Sums = make([]float64, dim)
			}
			a.Classes[p.Label] = ca
			if slot < uint(len(dense)) {
				dense[slot] = ca
			}
		}
		ca.Count += w
		ca.Var += (w - 1) / pr
		for d := 0; d < dim && d < len(p.Values); d++ {
			ca.Sums[d] += w * p.Values[d]
		}
	}
	return a
}

// NewMergeAccum returns an empty accumulator ready to Merge shard results
// into. h records the coordinator-level horizon the shards were asked
// about (informational; the per-shard walks already applied their own).
func NewMergeAccum(h uint64) *Accum {
	return &Accum{Horizon: h, Classes: make(map[int]*ClassAcc)}
}

// Merge folds b's accumulator terms into a — the Horvitz–Thompson merge
// for disjoint shard streams: every term is a per-point sum, so merging is
// addition (see the file comment for why this is exact). T becomes the
// largest shard position seen; dimensionality is promoted to the wider of
// the two so empty shards (Dim 0) merge as no-ops. b is not modified and
// no slice is aliased.
func (a *Accum) Merge(b *Accum) {
	if b == nil {
		return
	}
	if b.T > a.T {
		a.T = b.T
	}
	if b.Dim > a.Dim {
		a.Dim = b.Dim
	}
	a.Sums = addPadded(a.Sums, b.Sums, a.Dim)
	a.Count += b.Count
	a.CountVar += b.CountVar
	a.HasRange = a.HasRange || b.HasRange
	a.RangeNum += b.RangeNum
	a.RangeVar += b.RangeVar
	if a.Classes == nil && len(b.Classes) > 0 {
		a.Classes = make(map[int]*ClassAcc, len(b.Classes))
	}
	for label, cb := range b.Classes {
		ca := a.Classes[label]
		if ca == nil {
			ca = &ClassAcc{}
			a.Classes[label] = ca
		}
		ca.Count += cb.Count
		ca.Var += cb.Var
		ca.Sums = addPadded(ca.Sums, cb.Sums, a.Dim)
	}
}

// addPadded returns dst grown to dim with src's elements added in. dst is
// reused when already large enough; src is never aliased.
func addPadded(dst, src []float64, dim int) []float64 {
	n := len(dst)
	if len(src) > n {
		n = len(src)
	}
	if dim > n {
		n = dim
	}
	if n == 0 {
		return dst
	}
	if len(dst) < n {
		grown := make([]float64, n)
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Selectivity returns the estimated fraction of in-horizon points inside
// the rect the walk was given — the RangeSelectivity statistic, derived
// from the (mergeable) range numerator and the count denominator.
func (a *Accum) Selectivity() (float64, error) {
	if !a.HasRange {
		return 0, fmt.Errorf("query: accumulator carries no range terms (walk ran without a rect)")
	}
	if a.Count <= 0 {
		return 0, fmt.Errorf("query: no sample mass in horizon %d", a.Horizon)
	}
	return a.RangeNum / a.Count, nil
}

// ClassAccWire is ClassAcc in wire form (JSON-safe field tags).
type ClassAccWire struct {
	Count float64   `json:"count"`
	Var   float64   `json:"var"`
	Sums  []float64 `json:"sums,omitempty"`
}

// AccumWire is the JSON form of an Accum — the payload of the server's
// GET /streams/{name}/accum endpoint and the unit a federation
// coordinator merges. Class labels become string keys (JSON objects
// cannot key on ints).
type AccumWire struct {
	T        uint64                  `json:"t"`
	Horizon  uint64                  `json:"horizon"`
	Dim      int                     `json:"dim"`
	Count    float64                 `json:"count"`
	CountVar float64                 `json:"count_var"`
	Sums     []float64               `json:"sums,omitempty"`
	Classes  map[string]ClassAccWire `json:"classes,omitempty"`
	HasRange bool                    `json:"has_range,omitempty"`
	RangeNum float64                 `json:"range_num,omitempty"`
	RangeVar float64                 `json:"range_var,omitempty"`
}

// Wire renders the accumulator for transport. Slices are copied, so the
// wire form does not alias the accumulator.
func (a *Accum) Wire() AccumWire {
	w := AccumWire{
		T:        a.T,
		Horizon:  a.Horizon,
		Dim:      a.Dim,
		Count:    a.Count,
		CountVar: a.CountVar,
		HasRange: a.HasRange,
		RangeNum: a.RangeNum,
		RangeVar: a.RangeVar,
	}
	if len(a.Sums) > 0 {
		w.Sums = append([]float64(nil), a.Sums...)
	}
	if len(a.Classes) > 0 {
		w.Classes = make(map[string]ClassAccWire, len(a.Classes))
		for label, ca := range a.Classes {
			w.Classes[strconv.Itoa(label)] = ClassAccWire{
				Count: ca.Count,
				Var:   ca.Var,
				Sums:  append([]float64(nil), ca.Sums...),
			}
		}
	}
	return w
}

// Accum rebuilds the accumulator from its wire form, rejecting labels that
// do not parse as integers.
func (w AccumWire) Accum() (*Accum, error) {
	a := &Accum{
		T:        w.T,
		Horizon:  w.Horizon,
		Dim:      w.Dim,
		Count:    w.Count,
		CountVar: w.CountVar,
		HasRange: w.HasRange,
		RangeNum: w.RangeNum,
		RangeVar: w.RangeVar,
		Classes:  make(map[int]*ClassAcc, len(w.Classes)),
	}
	if len(w.Sums) > 0 {
		a.Sums = append([]float64(nil), w.Sums...)
	}
	for key, cw := range w.Classes {
		label, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("query: bad class label %q in wire accumulator", key)
		}
		a.Classes[label] = &ClassAcc{
			Count: cw.Count,
			Var:   cw.Var,
			Sums:  append([]float64(nil), cw.Sums...),
		}
	}
	return a, nil
}

// ParseRect builds a Rect from the comma-separated dims/lo/hi query
// parameters the HTTP surfaces share (e.g. dims=0,1&lo=0,0&hi=1,1).
func ParseRect(dims, lo, hi string) (Rect, error) {
	if dims == "" {
		return Rect{}, fmt.Errorf("query: rect needs dims/lo/hi parameters")
	}
	df, err := parseFloatList(dims)
	if err != nil {
		return Rect{}, err
	}
	lf, err := parseFloatList(lo)
	if err != nil {
		return Rect{}, err
	}
	hf, err := parseFloatList(hi)
	if err != nil {
		return Rect{}, err
	}
	di := make([]int, len(df))
	for i, v := range df {
		di[i] = int(v)
	}
	return NewRect(di, lf, hf)
}

// Params renders the rect back into the dims/lo/hi parameter triple
// ParseRect accepts — the client-side encoder.
func (r Rect) Params() (dims, lo, hi string) {
	ds := make([]string, len(r.Dims))
	ls := make([]string, len(r.Lo))
	hs := make([]string, len(r.Hi))
	for i, d := range r.Dims {
		ds[i] = strconv.Itoa(d)
	}
	for i, v := range r.Lo {
		ls[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	for i, v := range r.Hi {
		hs[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(ds, ","), strings.Join(ls, ","), strings.Join(hs, ",")
}

func parseFloatList(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
