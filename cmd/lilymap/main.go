// Command lilymap runs one synthesis → layout pipeline on a benchmark or a
// BLIF file and prints the paper's metrics.
//
// Usage:
//
//	lilymap -circuit C432                       # Lily, area mode
//	lilymap -circuit C5315 -mapper mis -mode delay
//	lilymap -blif design.blif -lambda 0.5 -verify
//	lilymap -circuit C1908 -mode delay -period 100   # slack report, exit 1 on violation
//	lilymap -circuit C432 -svg c432.svg -svg-nets 50 # draw the finished layout
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"lily"
)

func main() {
	circuit := flag.String("circuit", "", "benchmark name (see -list)")
	blif := flag.String("blif", "", "path to a combinational BLIF file")
	mapper := flag.String("mapper", "lily", "mapper: lily or mis (alias mis2.1)")
	mode := flag.String("mode", "area", "objective: area or delay")
	target := flag.String("target", "asic", "technology target: asic, lut4, or lut6")
	libChoice := flag.String("lib", "big", "library: big (≤6-input) or tiny (≤3-input)")
	defaults, _ := lily.FlowOptions{}.Normalize() // the zero options are valid
	lambda := flag.Float64("lambda", defaults.WireWeight, "Lily wire-cost weight λ")
	update := flag.String("update", "cm-of-fans", "Lily placement update: cm-of-fans, cm-of-merged, median")
	estimator := flag.String("wire", "hpwl", "Lily wire estimator: hpwl or rmst")
	noOrder := flag.Bool("no-cone-order", false, "disable §3.5 cone ordering")
	tree := flag.Bool("tree", false, "MIS: DAGON tree-covering mode")
	verify := flag.Bool("verify", false, "verify mapped netlist against source")
	mlThreshold := flag.Int("multilevel-threshold", 0,
		"movable-cell count above which placement uses the multilevel V-cycle (0 = default 25000, negative disables)")
	list := flag.Bool("list", false, "list benchmark names and exit")
	showPath := flag.Bool("path", false, "print the critical path")
	outBLIF := flag.String("o", "", "write the mapped, placed netlist as .gate BLIF to this path")
	period := flag.Float64("period", 0, "clock period in ns: print the slack report, exit 1 on a violation (0 = skip)")
	svgPath := flag.String("svg", "", "render the finished layout (rows, pads, nets) as SVG to this path")
	svgNets := flag.Int("svg-nets", 0, "with -svg, draw the N longest nets (0 = none)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(lily.BenchmarkNames(), " "))
		fmt.Println(strings.Join(lily.ScaleBenchmarkNames(), " "))
		return
	}

	var c *lily.Circuit
	var err error
	switch {
	case *blif != "":
		f, ferr := os.Open(*blif)
		if ferr != nil {
			fatal(ferr)
		}
		c, err = lily.LoadBLIF(f)
		f.Close()
	case *circuit != "":
		c, err = lily.GenerateBenchmark(*circuit)
	default:
		fmt.Fprintln(os.Stderr, "lilymap: need -circuit or -blif (try -list)")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if *outBLIF != "" && *svgPath != "" {
		fmt.Fprintln(os.Stderr, "lilymap: -o and -svg are exclusive")
		os.Exit(2)
	}
	opt := lily.FlowOptions{
		WireWeight:          *lambda,
		DisableConeOrdering: *noOrder,
		TreeMode:            *tree,
		VerifyEquivalence:   *verify,
		MultilevelThreshold: *mlThreshold,
		ClockPeriodNS:       *period,
	}
	var errs [6]error
	opt.Mapper, errs[0] = lily.ParseMapper(*mapper)
	opt.Objective, errs[1] = lily.ParseObjective(*mode)
	opt.Library, errs[2] = lily.ParseLibraryChoice(*libChoice)
	opt.Update, errs[3] = lily.ParsePlacementUpdate(*update)
	opt.Estimator, errs[4] = lily.ParseWireEstimator(*estimator)
	opt.Target, errs[5] = lily.ParseTechnologyTarget(*target)
	if err := errors.Join(errs[:]...); err != nil {
		fatal(err)
	}
	if opt, err = opt.Normalize(); err != nil {
		fatal(err)
	}

	st := c.Stats()
	fmt.Printf("circuit %s: %d PIs, %d POs, %d nodes, depth %d\n",
		c.Name(), st.PIs, st.POs, st.Nodes, st.Depth)

	var res *lily.FlowResult
	switch {
	case *outBLIF != "":
		res, err = writeFile(*outBLIF, func(w io.Writer) (*lily.FlowResult, error) {
			return lily.WriteMappedBLIF(c, opt, w)
		})
	case *svgPath != "":
		res, err = writeFile(*svgPath, func(w io.Writer) (*lily.FlowResult, error) {
			return lily.RenderLayoutSVG(c, opt, w, lily.SVGOptions{DrawNets: *svgNets > 0, MaxNets: *svgNets})
		})
	default:
		res, err = lily.RunFlow(c, opt)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mapper            %s (%s mode, %s library, %s target)\n",
		res.Mapper, res.Objective, *libChoice, res.Target)
	fmt.Printf("subject graph     %d NAND2/INV nodes\n", res.SubjectNodes)
	fmt.Printf("mapped gates      %d\n", res.Gates)
	fmt.Printf("instance area     %.4f mm²\n", res.ActiveAreaMM2)
	fmt.Printf("chip area         %.4f mm² (%d rows, peak channel density %d)\n",
		res.ChipAreaMM2, res.Rows, res.PeakChannelDensity)
	fmt.Printf("wirelength        %.2f mm\n", res.WirelengthMM)
	fmt.Printf("longest path      %.2f ns (to %s)\n", res.DelayNS, lastOf(res.CriticalPath))
	if res.Mapper == lily.MapperLily {
		fmt.Printf("lily life cycle   %d cones, %d reincarnations\n",
			res.LilyConesProcessed, res.LilyReincarnations)
	}
	if *showPath {
		fmt.Printf("critical path     %s\n", strings.Join(res.CriticalPath, " -> "))
	}
	var gates []string
	for g := range res.GateHistogram {
		gates = append(gates, g)
	}
	sort.Strings(gates)
	fmt.Printf("gate histogram   ")
	for _, g := range gates {
		fmt.Printf(" %s:%d", g, res.GateHistogram[g])
	}
	fmt.Println()
	if *period > 0 {
		fmt.Printf("clock period      %.3f ns\n", *period)
		fmt.Printf("worst slack       %+.3f ns\n", res.WorstSlackNS)
		if res.ViolatingCells > 0 {
			fmt.Printf("VIOLATED          %d cells with negative slack\n", res.ViolatingCells)
			os.Exit(1)
		}
		fmt.Println("met               all cells have non-negative slack")
	}
}

// writeFile creates path, runs the flow writing into it, and closes it,
// reporting the first error.
func writeFile(path string, run func(io.Writer) (*lily.FlowResult, error)) (*lily.FlowResult, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	res, err := run(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

func lastOf(path []string) string {
	if len(path) == 0 {
		return "?"
	}
	return path[len(path)-1]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lilymap:", err)
	os.Exit(1)
}
