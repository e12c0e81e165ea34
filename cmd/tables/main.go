// Command tables regenerates the paper's evaluation tables: Table 1 (area
// mode: instance area, final chip area, and total interconnect length after
// detailed routing; MIS 2.1 vs Lily) and Table 2 (timing mode: instance
// area and longest path delay; MIS 2.1 vs Lily).
//
// The benchmark suite fans out across the concurrent flow engine's worker
// pool (each circuit × mapper run is an independent, deterministic job),
// while rows print in suite order — the numbers are identical to a
// sequential run.
//
// The same suite can be run against a live lilyd as individual jobs
// (POST /v1/jobs); see README.md "Running a suite".
//
// Usage:
//
//	tables -table 1              # Table 1 over the full suite
//	tables -table 2              # Table 2 over the 12 timing circuits
//	tables -table 1 -only C432   # single row
//	tables -table 1 -workers 4   # bound the worker pool
//	tables -table 1 -target lut4 # extra FPGA columns
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"lily"
	"lily/internal/engine"
)

func main() {
	table := flag.Int("table", 1, "which table to regenerate (1 or 2)")
	only := flag.String("only", "", "run a single named circuit")
	verify := flag.Bool("verify", false, "verify mapped netlists against the source circuits")
	autotune := flag.Bool("autotune", false, "let Lily retry with the paper's §5 remedies and keep the best run")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "flow-engine worker-pool size")
	target := flag.String("target", "asic",
		"add FPGA columns mapped at this technology target: asic (none), lut4, or lut6")
	flag.Parse()

	tgt, err := lily.ParseTechnologyTarget(*target)
	if err != nil {
		fatal(err)
	}

	var names []string
	switch *table {
	case 1:
		names = lily.BenchmarkNames()
	case 2:
		names = lily.Table2Names()
	default:
		fmt.Fprintf(os.Stderr, "tables: unknown table %d\n", *table)
		os.Exit(2)
	}
	if *only != "" {
		names = []string{*only}
	}

	objective := lily.ObjectiveArea
	if *table == 2 {
		objective = lily.ObjectiveDelay
	}

	eng := engine.New(engine.Config{Workers: *workers})
	defer func() { _ = eng.Shutdown(context.Background()) }()
	rows := submitSuite(eng, names, objective, tgt, *verify, *autotune)

	if *table == 1 {
		runTable1(names, rows, tgt)
	} else {
		runTable2(names, rows, tgt)
	}
}

// row holds the engine jobs of one table line: the MIS and Lily runs of
// a circuit, plus the Lily run at the LUT target when one is selected
// (nil otherwise).
type row struct {
	mis, lily, fpga *engine.Job
}

// submitSuite fans the whole suite out across the engine's worker pool:
// one job per circuit × mapper, submitted up front so workers stay busy
// while rows are reaped in print order.
func submitSuite(eng *engine.Engine, names []string, objective lily.Objective, tgt lily.TechnologyTarget, verify, autotune bool) map[string]row {
	ctx := context.Background()
	rows := make(map[string]row, len(names))
	for _, name := range names {
		m, err := eng.Submit(ctx, engine.Request{
			Benchmark: name,
			Options: lily.FlowOptions{
				Mapper: lily.MapperMIS, Objective: objective, VerifyEquivalence: verify},
		})
		if err != nil {
			fatal(err)
		}
		l, err := eng.Submit(ctx, engine.Request{
			Benchmark: name,
			Options: lily.FlowOptions{
				Mapper: lily.MapperLily, Objective: objective,
				AutoTune: autotune, VerifyEquivalence: verify},
		})
		if err != nil {
			fatal(err)
		}
		r := row{mis: m, lily: l}
		if tgt != lily.TargetASIC {
			r.fpga, err = eng.Submit(ctx, engine.Request{
				Benchmark: name,
				Options: lily.FlowOptions{
					Mapper: lily.MapperLily, Objective: objective, Target: tgt,
					VerifyEquivalence: verify},
			})
			if err != nil {
				fatal(err)
			}
		}
		rows[name] = r
	}
	return rows
}

// reap blocks until the jobs of a row finish and returns their results.
func (r row) reap() (m, l, f *lily.FlowResult) {
	ctx := context.Background()
	mo, err := r.mis.Wait(ctx)
	if err != nil {
		fatal(err)
	}
	lo, err := r.lily.Wait(ctx)
	if err != nil {
		fatal(err)
	}
	if r.fpga == nil {
		return mo.Result, lo.Result, nil
	}
	fo, err := r.fpga.Wait(ctx)
	if err != nil {
		fatal(err)
	}
	return mo.Result, lo.Result, fo.Result
}

func runTable1(names []string, rows map[string]row, tgt lily.TechnologyTarget) {
	fmt.Println("Table 1: area mode — MIS2.1 vs Lily (instance area, chip area, wirelength)")
	fmt.Printf("%-8s | %10s %10s %8s | %10s %10s %8s | %6s %6s %6s",
		"Ex.", "mis inst", "mis chip", "mis WL", "lily inst", "lily chip", "lily WL",
		"Δinst", "Δchip", "ΔWL")
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9s %8s", tgt.String()+" n", tgt.String()+" WL")
	}
	fmt.Println()
	fmt.Printf("%-8s | %10s %10s %8s | %10s %10s %8s | %6s %6s %6s",
		"", "mm²", "mm²", "mm", "mm²", "mm²", "mm", "%", "%", "%")
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9s %8s", "LUTs", "mm")
	}
	fmt.Println()
	var sumMI, sumMC, sumMW, sumLI, sumLC, sumLW float64
	var sumFN int
	var gi, gc, gw float64 // geometric-mean accumulators (log-free: products)
	count := 0
	for _, name := range names {
		m, l, f := rows[name].reap()
		fmt.Printf("%-8s | %10.3f %10.3f %8.2f | %10.3f %10.3f %8.2f | %+6.1f %+6.1f %+6.1f",
			name, m.ActiveAreaMM2, m.ChipAreaMM2, m.WirelengthMM,
			l.ActiveAreaMM2, l.ChipAreaMM2, l.WirelengthMM,
			pct(l.ActiveAreaMM2, m.ActiveAreaMM2),
			pct(l.ChipAreaMM2, m.ChipAreaMM2),
			pct(l.WirelengthMM, m.WirelengthMM))
		if f != nil {
			fmt.Printf(" | %9d %8.2f", f.Gates, f.WirelengthMM)
			sumFN += f.Gates
		}
		fmt.Println()
		sumMI += m.ActiveAreaMM2
		sumMC += m.ChipAreaMM2
		sumMW += m.WirelengthMM
		sumLI += l.ActiveAreaMM2
		sumLC += l.ChipAreaMM2
		sumLW += l.WirelengthMM
		gi += pct(l.ActiveAreaMM2, m.ActiveAreaMM2)
		gc += pct(l.ChipAreaMM2, m.ChipAreaMM2)
		gw += pct(l.WirelengthMM, m.WirelengthMM)
		count++
	}
	fmt.Printf("%-8s | %10.3f %10.3f %8.2f | %10.3f %10.3f %8.2f | %+6.1f %+6.1f %+6.1f",
		"TOTAL", sumMI, sumMC, sumMW, sumLI, sumLC, sumLW,
		pct(sumLI, sumMI), pct(sumLC, sumMC), pct(sumLW, sumMW))
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9d %8s", sumFN, "")
	}
	fmt.Println()
	fmt.Printf("average per-circuit change: inst %+.1f%%  chip %+.1f%%  WL %+.1f%%\n",
		gi/float64(count), gc/float64(count), gw/float64(count))
	fmt.Println("paper reports: inst +1.9%  chip -5%  WL -7% (averages)")
}

func runTable2(names []string, rows map[string]row, tgt lily.TechnologyTarget) {
	fmt.Println("Table 2: timing mode — MIS2.1 vs Lily (instance area, longest path delay)")
	fmt.Printf("%-8s | %10s %8s | %10s %8s | %6s %6s",
		"Ex.", "mis inst", "mis dly", "lily inst", "lily dly", "Δinst", "Δdly")
	if tgt != lily.TargetASIC {
		fmt.Printf(" | %9s %8s", tgt.String()+" n", tgt.String()+" dly")
	}
	fmt.Println()
	var sumMD, sumLD, dAcc float64
	count := 0
	for _, name := range names {
		m, l, f := rows[name].reap()
		fmt.Printf("%-8s | %10.3f %8.2f | %10.3f %8.2f | %+6.1f %+6.1f",
			name, m.ActiveAreaMM2, m.DelayNS, l.ActiveAreaMM2, l.DelayNS,
			pct(l.ActiveAreaMM2, m.ActiveAreaMM2), pct(l.DelayNS, m.DelayNS))
		if f != nil {
			fmt.Printf(" | %9d %8.2f", f.Gates, f.DelayNS)
		}
		fmt.Println()
		sumMD += m.DelayNS
		sumLD += l.DelayNS
		dAcc += pct(l.DelayNS, m.DelayNS)
		count++
	}
	fmt.Printf("average delay change: %+.1f%% (paper reports -8%%)\n", dAcc/float64(count))
}

func pct(lilyVal, misVal float64) float64 {
	if misVal == 0 {
		return 0
	}
	return (lilyVal - misVal) / misVal * 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
