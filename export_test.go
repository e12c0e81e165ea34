package lily

import (
	"context"

	"lily/internal/decomp"
	"lily/internal/netlist"
)

// MappedNetlist runs the flow and returns the mapped netlist, for the
// external tests that check it against reference algorithms.
func MappedNetlist(ctx context.Context, c *Circuit, opt FlowOptions) (*netlist.Netlist, error) {
	_, lres, err := runPipeline(ctx, c, opt)
	if err != nil {
		return nil, err
	}
	return lres.Netlist, nil
}

// SubjectExitLines sums the exit-line matrix of c's subject graph (the
// premapped network whose PO cones the cover orders), for the tests that
// pin cone-order work.
func SubjectExitLines(c *Circuit) (int, error) {
	pre, err := decomp.Premap(c.net)
	if err != nil {
		return 0, err
	}
	sum := 0
	for _, row := range pre.Inchoate.ExitLines() {
		for _, e := range row {
			sum += e
		}
	}
	return sum, nil
}
