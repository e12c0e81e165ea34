package wire

import (
	"math/rand"
	"testing"

	"lily/internal/geom"
)

func benchPts(n int) []geom.Point {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

func BenchmarkHPWL8(b *testing.B) {
	pts := benchPts(8)
	for i := 0; i < b.N; i++ {
		HPWL(pts)
	}
}

func BenchmarkRMST8(b *testing.B) {
	pts := benchPts(8)
	var s Scratch
	for i := 0; i < b.N; i++ {
		s.RMST(pts)
	}
}

func BenchmarkRMST32(b *testing.B) {
	pts := benchPts(32)
	var s Scratch
	for i := 0; i < b.N; i++ {
		s.RMST(pts)
	}
}

func BenchmarkMedianPoint(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rects := make([]geom.Rect, 6)
	for i := range rects {
		a := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		c := geom.Point{X: a.X + rng.Float64()*20, Y: a.Y + rng.Float64()*20}
		rects[i] = geom.Enclosing([]geom.Point{a, c})
	}
	for i := 0; i < b.N; i++ {
		MedianPoint(rects)
	}
}
