package lily

import (
	"context"

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
