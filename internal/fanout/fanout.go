// Package fanout implements the buffer-tree postprocessing pass the paper
// lists as future work (§5: "Currently, Lily does not perform fanout
// optimization ... we could perform a postprocessing pass to derive fanout
// trees"). Nets whose sink count exceeds a threshold are split by a
// spatially clustered buffer tree: sinks are grouped by recursive median
// bipartition of their placed positions, each group is driven by a buffer
// at the group's centroid, and the construction recurses until the root
// driver sees a bounded fanout. Buffers are logic identities, so the
// netlist function is unchanged; the delay benefit comes from dividing the
// capacitive load and shortening each subnet.
package fanout

import (
	"fmt"
	"sort"

	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/netlist"
)

// minSinksPerBuffer prevents degenerate single-sink buffers.
const minSinksPerBuffer = 2

// Options tunes the pass.
type Options struct {
	// MaxFanout is the largest sink count a driver is left with; nets at
	// or below it are untouched.
	MaxFanout int
}

// DefaultOptions returns the configuration used by the flow.
func DefaultOptions() Options {
	return Options{MaxFanout: 6}
}

// Stats reports what the pass did.
type Stats struct {
	NetsBuffered    int
	BuffersInserted int
}

// sink is one rewireable consumer: a cell input pin or a primary output.
type sink struct {
	pin *netlist.Ref // points into Cells[i].Inputs[j] or POs[k].Driver
	pos geom.Point
}

// Optimize rewrites high-fanout nets in place and returns statistics. The
// netlist must carry placement positions (run the global placer first for
// position-less netlists).
func Optimize(nl *netlist.Netlist, lib *library.Library, opt Options) (Stats, error) {
	var st Stats
	if opt.MaxFanout < 2 {
		return st, fmt.Errorf("fanout: MaxFanout must be at least 2, got %d", opt.MaxFanout)
	}
	if lib.Buf == nil {
		return st, fmt.Errorf("fanout: library has no buffer cell")
	}

	// Snapshot nets before rewiring: collect sink pin addresses per driver.
	type netInfo struct {
		driver netlist.Ref
		sinks  []sink
	}
	var nets []netInfo
	{
		byDriver := make(map[netlist.Ref]*netInfo)
		// Ordered traversal keeps the pass deterministic.
		order := make([]netlist.Ref, 0)
		seen := make(map[netlist.Ref]bool)
		touch := func(r netlist.Ref) *netInfo {
			if !seen[r] {
				seen[r] = true
				order = append(order, r)
				byDriver[r] = &netInfo{driver: r}
			}
			return byDriver[r]
		}
		for ci := range nl.Cells {
			for pi := range nl.Cells[ci].Inputs {
				r := nl.Cells[ci].Inputs[pi]
				ni := touch(r)
				ni.sinks = append(ni.sinks, sink{
					pin: &nl.Cells[ci].Inputs[pi],
					pos: nl.Cells[ci].Pos,
				})
			}
		}
		for k := range nl.POs {
			ni := touch(nl.POs[k].Driver)
			ni.sinks = append(ni.sinks, sink{pin: &nl.POs[k].Driver, pos: nl.POs[k].Pad})
		}
		nets = nets[:0]
		for _, r := range order {
			nets = append(nets, *byDriver[r])
		}
	}

	for _, ni := range nets {
		if len(ni.sinks) <= opt.MaxFanout {
			continue
		}
		n := buildTree(nl, lib, ni.driver, ni.sinks, opt, 0)
		if n > 0 {
			st.NetsBuffered++
			st.BuffersInserted += n
		}
	}
	if err := nl.Check(); err != nil {
		return st, fmt.Errorf("fanout: produced broken netlist: %w", err)
	}
	return st, nil
}

// buildTree groups sinks spatially, inserts one buffer per group, and
// recurses while the driver's direct fanout still exceeds the bound.
// Returns the number of buffers inserted.
func buildTree(nl *netlist.Netlist, lib *library.Library, driver netlist.Ref, sinks []sink, opt Options, depth int) int {
	if len(sinks) <= opt.MaxFanout || depth > 8 {
		for _, s := range sinks {
			*s.pin = driver
		}
		return 0
	}
	groups := clusterSinks(sinks, opt.MaxFanout)
	if len(groups) <= 1 {
		for _, s := range sinks {
			*s.pin = driver
		}
		return 0
	}
	inserted := 0
	upper := make([]sink, 0, len(groups))
	for _, g := range groups {
		pts := make([]geom.Point, len(g))
		for i, s := range g {
			pts[i] = s.pos
		}
		ci := nl.AddCell(&netlist.Cell{
			Name:   fmt.Sprintf("fbuf%d", len(nl.Cells)),
			Gate:   lib.Buf,
			Inputs: []netlist.Ref{driver}, // rewired by the recursion
			Pos:    geom.Centroid(pts),
		})
		ref := netlist.Ref{Index: ci}
		for _, s := range g {
			*s.pin = ref
		}
		inserted++
		upper = append(upper, sink{pin: &nl.Cells[ci].Inputs[0], pos: nl.Cells[ci].Pos})
	}
	return inserted + buildTree(nl, lib, driver, upper, opt, depth+1)
}

// clusterSinks splits sinks into spatial groups of at most maxPer by
// recursive alternating median bipartition, each holding at least
// minSinksPerBuffer.
func clusterSinks(sinks []sink, maxPer int) [][]sink {
	work := append([]sink(nil), sinks...)
	var out [][]sink
	var split func(s []sink, byX bool)
	split = func(s []sink, byX bool) {
		if len(s) <= maxPer {
			if len(s) > 0 {
				out = append(out, s)
			}
			return
		}
		if byX {
			sort.SliceStable(s, func(a, b int) bool { return s[a].pos.X < s[b].pos.X })
		} else {
			sort.SliceStable(s, func(a, b int) bool { return s[a].pos.Y < s[b].pos.Y })
		}
		mid := len(s) / 2
		if mid < minSinksPerBuffer {
			mid = minSinksPerBuffer
		}
		if len(s)-mid < minSinksPerBuffer {
			mid = len(s) - minSinksPerBuffer
		}
		split(s[:mid], !byX)
		split(s[mid:], !byX)
	}
	split(work, true)
	return out
}
