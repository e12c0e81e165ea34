package layout

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"lily/internal/geom"
	"lily/internal/wire"
)

// SVGOptions controls the layout rendering.
type SVGOptions struct {
	// Scale is pixels per µm (default 0.25).
	Scale float64
	// DrawNets renders a spanning tree for every net; on large designs
	// this dominates the file size.
	DrawNets bool
	// MaxNets caps the number of nets drawn (longest first); 0 = all.
	MaxNets int
}

// WriteSVG renders a finished layout — rows, cells, pads, channels, and
// optionally net spanning trees — as a standalone SVG document.
func WriteSVG(w io.Writer, res *Result, opt SVGOptions) error {
	if opt.Scale <= 0 {
		opt.Scale = 0.25
	}
	nl := res.Netlist
	bw := bufio.NewWriter(w)
	sw, sh := res.ChipWidth*opt.Scale, res.ChipHeight*opt.Scale
	margin := 20.0
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="%.1f %.1f %.1f %.1f">`+"\n",
		sw+2*margin, sh+2*margin, -margin, -margin, sw+2*margin, sh+2*margin)
	// SVG y grows downward; flip so the chip's origin is bottom-left.
	flip := func(p geom.Point) (float64, float64) {
		return p.X * opt.Scale, (res.ChipHeight - p.Y) * opt.Scale
	}

	fmt.Fprintf(bw, `<rect x="0" y="0" width="%.1f" height="%.1f" fill="#fafafa" stroke="#333"/>`+"\n", sw, sh)

	// Cells, colored by gate fanin count.
	for _, c := range nl.Cells {
		x, y := flip(c.Pos)
		wpx := c.Gate.Width * opt.Scale
		hpx := c.Gate.Height * opt.Scale
		fill := cellColor(c.Gate.NumInputs)
		fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#555" stroke-width="0.3"><title>%s (%s)</title></rect>`+"\n",
			x-wpx/2, y-hpx/2, wpx, hpx, fill, c.Name, c.Gate.Name)
	}

	// Pads.
	for i, p := range nl.PIPos {
		x, y := flip(p)
		fmt.Fprintf(bw, `<circle cx="%.1f" cy="%.1f" r="3" fill="#2166ac"><title>PI %s</title></circle>`+"\n",
			x, y, nl.PINames[i])
	}
	for _, po := range nl.POs {
		x, y := flip(po.Pad)
		fmt.Fprintf(bw, `<circle cx="%.1f" cy="%.1f" r="3" fill="#b2182b"><title>PO %s</title></circle>`+"\n",
			x, y, po.Name)
	}

	if opt.DrawNets {
		type drawn struct {
			pts []geom.Point
			len float64
		}
		var nets []drawn
		var ws wire.Scratch
		for _, net := range nl.Nets() {
			pts := nl.NetPins(net)
			if len(pts) < 2 {
				continue
			}
			nets = append(nets, drawn{pts, ws.RMST(pts)})
		}
		// Longest nets first so a cap keeps the interesting ones.
		for i := 0; i < len(nets); i++ {
			for j := i + 1; j < len(nets); j++ {
				if nets[j].len > nets[i].len {
					nets[i], nets[j] = nets[j], nets[i]
				}
			}
		}
		if opt.MaxNets > 0 && len(nets) > opt.MaxNets {
			nets = nets[:opt.MaxNets]
		}
		for _, d := range nets {
			drawSpanningTree(bw, d.pts, flip)
		}
	}

	fmt.Fprintln(bw, "</svg>")
	return bw.Flush()
}

func cellColor(fanin int) string {
	switch {
	case fanin <= 1:
		return "#d9f0d3"
	case fanin == 2:
		return "#a6dba0"
	case fanin == 3:
		return "#5aae61"
	case fanin == 4:
		return "#fee08b"
	case fanin == 5:
		return "#fdae61"
	default:
		return "#f46d43"
	}
}

// drawSpanningTree emits rectilinear (L-shaped) segments of a Prim MST.
func drawSpanningTree(w io.Writer, pts []geom.Point, flip func(geom.Point) (float64, float64)) {
	n := len(pts)
	inTree := make([]bool, n)
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = math.MaxFloat64
		from[i] = -1
	}
	dist[0] = 0
	for k := 0; k < n; k++ {
		best, bestD := -1, math.MaxFloat64
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		if from[best] >= 0 {
			ax, ay := flip(pts[from[best]])
			bx, by := flip(pts[best])
			fmt.Fprintf(w, `<path d="M %.1f %.1f L %.1f %.1f L %.1f %.1f" fill="none" stroke="#4575b4" stroke-width="0.5" opacity="0.5"/>`+"\n",
				ax, ay, bx, ay, bx, by)
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].Manhattan(pts[i]); d < dist[i] {
					dist[i] = d
					from[i] = best
				}
			}
		}
	}
}
