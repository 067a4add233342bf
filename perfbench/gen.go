package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"

	"biasedres/internal/client"
)

// gen draws every input of a run from the run's seed and folds each
// drawn value into a digest, so two runs provably replay the same
// inputs exactly when their digests match.
type gen struct {
	r   *rand.Rand
	h   hash.Hash
	buf [8]byte
}

// newGen returns the generator for one input family of a run; salt
// separates families so adding one does not shift the others.
func newGen(seed, salt uint64) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, salt)), h: sha256.New()}
}

func (g *gen) fold(x uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], x)
	g.h.Write(g.buf[:])
}

func (g *gen) intN(n int) int {
	v := g.r.IntN(n)
	g.fold(uint64(v))
	return v
}

func (g *gen) float() float64 {
	v := g.r.Float64()
	g.fold(math.Float64bits(v))
	return v
}

// numClasses is how many labelled clusters the points are drawn from.
const numClasses = 5

// points draws n labelled points of dimension dim from numClasses
// Gaussian clusters. The points share one values backing and one label
// backing, so a batch costs three allocations however large it is.
func (g *gen) points(n, dim int) []client.Point {
	vals := make([]float64, n*dim)
	labels := make([]int, n)
	pts := make([]client.Point, n)
	for i := range pts {
		k := g.r.IntN(numClasses)
		labels[i] = k
		g.fold(uint64(k))
		v := vals[i*dim : (i+1)*dim : (i+1)*dim]
		for j := range v {
			v[j] = float64((k*7+j*3)%11) + 0.5*g.r.NormFloat64()
			g.fold(math.Float64bits(v[j]))
		}
		pts[i] = client.Point{Values: v, Label: &labels[i]}
	}
	return pts
}

// zipf returns a sampler of ranks 0..n-1 with P(k) ∝ 1/(k+1)^s.
func (g *gen) zipf(n int, s float64) func() int {
	cum := make([]float64, n)
	var total float64
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	return func() int {
		u := g.float() * total
		for k, c := range cum {
			if u < c {
				return k
			}
		}
		return n - 1
	}
}

// digest is the hex SHA-256 of everything drawn so far.
func (g *gen) digest() string { return hex.EncodeToString(g.h.Sum(nil)) }

// combineDigests folds per-family digests into one run digest.
func combineDigests(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// fingerprint identifies a frame by its first point's values; the
// benchmark draws continuous values, so fingerprints of distinct frames
// collide only by accident.
func fingerprint(values []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range values {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}
