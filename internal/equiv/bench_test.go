package equiv

import "testing"

// BenchmarkCheck times one equivalence check per iteration on a circuit
// whose BDDs exhaust the default node budget, so the check falls back to
// simulation (C5315), and on one the BDDs prove (duke2).
func BenchmarkCheck(b *testing.B) {
	for _, tc := range []struct {
		name   string
		method Method
	}{{"C5315", MethodSimulation}, {"duke2", MethodBDD}} {
		b.Run(tc.name, func(b *testing.B) {
			src, nl := mapped(b, tc.name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Check(src, nl, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				if !res.Equivalent || res.Method != tc.method {
					b.Fatalf("equivalent=%v method=%v, want an equivalent %v verdict", res.Equivalent, res.Method, tc.method)
				}
			}
		})
	}
}
