package core

import (
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// BenchmarkBuildSnapshot measures one snapshot rebuild on a full
// 10,000-point variable reservoir (λ = 1e-4, so capacity = 1/λ) of
// 4-dimensional points: the reservoir copy plus one InclusionProb per
// resident that every query pays after ingest invalidated the cache.
func BenchmarkBuildSnapshot(b *testing.B) {
	const capacity, dim = 10_000, 4
	s, err := NewVariableReservoir(1e-4, capacity, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(1); s.Len() < capacity; i++ {
		if i > 100*capacity {
			b.Fatalf("reservoir holds %d points after %d arrivals", s.Len(), i)
		}
		v := make([]float64, dim)
		for d := range v {
			v[d] = float64((i + uint64(d)) % 17)
		}
		s.Add(stream.Point{Index: i, Values: v, Label: int(i % 3), Weight: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := BuildSnapshot(s); len(snap.Points) != capacity {
			b.Fatalf("snapshot holds %d points, want %d", len(snap.Points), capacity)
		}
	}
}
