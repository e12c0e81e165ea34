package core

import (
	"fmt"

	"lily/internal/logic"
)

// State is a subject-graph node's position in the life cycle of Figure 2.2:
// an egg has not been visited; a nestling has been visited in the current
// cone but not yet resolved; a hawk is the sink of a committed match and
// will appear in the final network; a dove has been merged into a hawk and
// will not — unless logic duplication reincarnates it in a later cone.
type State byte

const (
	// StateEgg marks an unvisited node.
	StateEgg State = iota
	// StateNestling marks a node visited in the current cone.
	StateNestling
	// StateHawk marks a committed match sink.
	StateHawk
	// StateDove marks a node merged into a hawk.
	StateDove
)

func (s State) String() string {
	switch s {
	case StateEgg:
		return "egg"
	case StateNestling:
		return "nestling"
	case StateHawk:
		return "hawk"
	default:
		return "dove"
	}
}

// Transition is one recorded life-cycle step, kept for tests and stats.
type Transition struct {
	Node logic.NodeID
	From State
	To   State
}

// LifecycleStats summarizes the mapping run.
type LifecycleStats struct {
	Hawks          int // nodes in the final network
	Doves          int // nodes merged away
	Reincarnations int // doves that re-entered processing (logic duplication)
	ConesProcessed int
	Replacements   int // global re-placements of the partially mapped network
}

func (s LifecycleStats) String() string {
	return fmt.Sprintf("hawks=%d doves=%d reincarnations=%d cones=%d",
		s.Hawks, s.Doves, s.Reincarnations, s.ConesProcessed)
}

// legalTransitions encodes the automaton of Figure 2.2, indexed
// [from][to]. Dove → nestling is the reincarnation arc (the paper routes
// it through egg; the intermediate egg state is instantaneous and not
// observable).
var legalTransitions = [4][4]bool{
	StateEgg: {StateNestling: true},
	// Nestling → nestling: revisited within overlapping cones.
	StateNestling: {StateNestling: true, StateHawk: true, StateDove: true},
	// Dove → hawk: a merged node needed by a later cone commit.
	StateDove: {StateNestling: true, StateHawk: true},
}

// record validates and logs a transition.
func (lm *lily) setState(v logic.NodeID, to State) error {
	from := lm.state[v]
	if from == to {
		return nil
	}
	if !legalTransitions[from][to] {
		return fmt.Errorf("core: illegal life-cycle transition %v -> %v at node %d", from, to, v)
	}
	lm.state[v] = to
	// Every transition except egg→nestling changes v's membership in the
	// true-fanout lists of its direct fanins (and nothing else's: a
	// signal's list reads only its consumers' states), so bump exactly
	// those signals' fan versions. Egg and nestling are both "live"
	// consumers at state-independent positions and capacitances, so that
	// one transition keeps the caches warm across a cone's reverse-DFS
	// sweep.
	if from != StateEgg || to != StateNestling {
		for _, f := range lm.sub.Nodes[v].Fanins {
			lm.fanVer[f]++
		}
	}
	if lm.trace != nil {
		lm.trace = append(lm.trace, Transition{Node: v, From: from, To: to})
	}
	return nil
}
