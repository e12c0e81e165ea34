package mis

import (
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
)

// BenchmarkMISMapC5315 measures the baseline cover of the premapped
// C5315 in both modes; with -benchmem, allocs/op and B/op show what the
// single-use candidate enumeration keeps per node.
func BenchmarkMISMapC5315(b *testing.B) {
	p, ok := bench.ProfileByName("C5315")
	if !ok {
		b.Fatal("no profile C5315")
	}
	res, err := decomp.Premap(bench.Generate(p))
	if err != nil {
		b.Fatal(err)
	}
	lib := library.Big()
	for _, mode := range []Mode{ModeArea, ModeDelay} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Map(res.Inchoate, lib, DefaultOptions(mode)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
