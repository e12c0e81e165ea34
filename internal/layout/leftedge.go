package layout

import "sort"

// Span is one net's horizontal extent inside a routing channel.
type Span struct {
	Lo, Hi float64
}

// AssignTracks performs classic left-edge channel routing over the spans
// (the algorithm YACR-class routers build on): spans are sorted by left
// edge and greedily packed into the lowest track whose last span ends
// before the next begins. It returns the track index of every span (in the
// input order) and the number of tracks used. For interval graphs the
// left-edge result is optimal, so the track count equals the channel's
// peak density.
func AssignTracks(spans []Span) (tracks []int, numTracks int) {
	tracks = make([]int, len(spans))
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		//lint:exact comparator tie-break: equal Lo falls through to Hi; exact != keeps the order strict-weak
		if spans[order[a]].Lo != spans[order[b]].Lo {
			return spans[order[a]].Lo < spans[order[b]].Lo
		}
		return spans[order[a]].Hi < spans[order[b]].Hi
	})
	var trackEnd []float64 // rightmost occupied x per track
	for _, si := range order {
		s := spans[si]
		placed := false
		for ti := range trackEnd {
			if trackEnd[ti] < s.Lo {
				trackEnd[ti] = s.Hi
				tracks[si] = ti
				placed = true
				break
			}
		}
		if !placed {
			trackEnd = append(trackEnd, s.Hi)
			tracks[si] = len(trackEnd) - 1
		}
	}
	return tracks, len(trackEnd)
}

// spanDensity computes the peak overlap of the spans by interval sweep —
// the same metric channelDensities uses.
func spanDensity(spans []Span) int {
	type ev struct {
		x     float64
		delta int
	}
	evs := make([]ev, 0, 2*len(spans))
	for _, s := range spans {
		evs = append(evs, ev{s.Lo, 1}, ev{s.Hi, -1})
	}
	sort.Slice(evs, func(a, b int) bool {
		//lint:exact comparator tie-break: events at one x fall through to opens-first; exact != keeps the order strict-weak
		if evs[a].x != evs[b].x {
			return evs[a].x < evs[b].x
		}
		return evs[a].delta > evs[b].delta
	})
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}
