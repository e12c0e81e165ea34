package cut

import (
	"testing"

	"lily/internal/library"
	"lily/internal/logic"
)

// BenchmarkEnumeratorAllNodes runs MatchesAt over every node of C5315's
// subject graph at K = 6 on a fresh Enumerator per iteration, so cut
// enumeration, cone truth tables and LUT cell synthesis are all paid
// each time. Run it with -benchmem for allocs/op.
func BenchmarkEnumeratorAllNodes(b *testing.B) {
	sub := subjectFor(b, "C5315")
	lib := library.Big()
	var nodes []logic.NodeID
	for _, nd := range sub.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic {
			nodes = append(nodes, nd.ID)
		}
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		e := NewEnumerator(sub, lib, 6)
		for _, v := range nodes {
			total += len(e.MatchesAt(v))
		}
	}
	b.ReportMetric(float64(total)/float64(b.N)/float64(len(nodes)), "matches/node")
}
