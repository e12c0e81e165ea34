package core

import (
	"fmt"
	"slices"

	"lily/internal/geom"
	"lily/internal/logic"
	"lily/internal/place"
)

// replaceGlobal re-runs the global placement on the current hybrid network
// — committed hawks as real gates, unmapped eggs as base cells, doves as
// zero-area pass-through vertices — keeping the die and the pad positions
// of the original placement (§3.2). Fresh placePositions go to eggs and
// doves; hawks get fresh mapPositions.
func (lm *lily) replaceGlobal() error {
	hybrid := logic.New(lm.sub.Name + "-hybrid")
	sig := make(map[logic.NodeID]logic.NodeID, len(lm.sub.Nodes))
	widths := make(map[logic.NodeID]float64)

	for _, pi := range lm.sub.PIs {
		nd := hybrid.AddPI(lm.sub.Nodes[pi].Name)
		sig[pi] = nd.ID
	}

	order, err := lm.sub.TopoOrder()
	if err != nil {
		return err
	}
	for _, v := range order {
		nd := lm.sub.Nodes[v]
		if nd.Kind != logic.KindLogic {
			continue
		}
		var fanins []logic.NodeID
		var width float64
		switch lm.state[v] {
		case StateHawk:
			m := lm.best[v]
			ins := m.Inputs()
			for j, in := range ins {
				if !slices.Contains(ins[:j], in) {
					fanins = append(fanins, sig[in])
				}
			}
			width = m.Gate.Width
		default: // eggs and doves keep the subject structure
			for j, f := range nd.Fanins {
				if !slices.Contains(nd.Fanins[:j], f) {
					fanins = append(fanins, sig[f])
				}
			}
			if lm.state[v] == StateDove {
				width = 1 // placeholder footprint: the logic lives inside a hawk
			} else {
				width = baseGate(lm.sub, lm.lib, v).Width
			}
		}
		if len(fanins) == 0 {
			return fmt.Errorf("core: hybrid node %q has no fanins", nd.Name)
		}
		h := hybrid.AddLogic(nd.Name, fanins, logic.OrSOP(len(fanins)))
		sig[v] = h.ID
		widths[h.ID] = width
	}
	for i, po := range lm.sub.POs {
		hybrid.MarkPO(sig[po], lm.sub.PONames[i])
	}

	cfg := lm.opt.Place
	cfg.Die = lm.pl.Die
	cfg.FixedPads = make(map[string]geom.Point, len(lm.sub.PIs)+len(lm.pl.POPads))
	for _, pi := range lm.sub.PIs {
		cfg.FixedPads[lm.sub.Nodes[pi].Name] = lm.pl.Pos[pi]
	}
	for name, p := range lm.pl.POPads {
		cfg.FixedPads[name] = p
	}

	pr, err := place.GlobalContext(lm.ctx, hybrid, func(id logic.NodeID) float64 { return widths[id] },
		lm.lib.RowHeight, cfg)
	if err != nil {
		return err
	}

	for v, h := range sig {
		nd := lm.sub.Nodes[v]
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		pos := pr.Pos[h]
		if lm.state[v] == StateHawk {
			lm.mapPos[v] = pos
		}
		lm.pl.Pos[v] = pos
		lm.posArr[v] = pos
	}
	// placePositions and mapPositions moved: bump every signal's stamp,
	// which stales every cached true-fanout list and every memo entry
	// (each candidate reads at least one input signal).
	for i := range lm.stamps {
		lm.stamps[i].ver++
	}
	return nil
}
