// Package locality provides the ball-based executor: a
// centrally computed LOCAL algorithm whose synchronous-round cost is
// charged explicitly, phase by phase. The LOCAL-model equivalence used here
// is the one the paper spells out in Section 2: an r-round algorithm is
// exactly a function of each node's radius-r view, so a phase that is
// computable from radius-r views may be charged r rounds. The ledger
// (commit rounds per node/edge) is the same shape the message-passing
// runtime produces, so the measure pipeline is shared.
//
// This executor exists for the deterministic algorithms whose faithful
// message-passing rendering is disproportionately intricate (the rounding
// core of Theorem 5, the clustering recursion of Theorem 6). Each Advance
// call documents the subroutine it stands for; the per-phase charges are
// the algorithms' theoretical costs with explicit constants.
package locality

import (
	"fmt"

	"avgloc/internal/graph"
	"avgloc/internal/runtime"
)

// Sim is a round-charged central simulation on a fixed graph.
type Sim struct {
	g          *graph.Graph
	clock      int32
	nodeCommit []int32
	edgeCommit []int32
	nodeOut    []int32
	edgeOut    []int32
	errs       []error
}

// New returns a simulation with the clock at round 0 and nothing committed.
func New(g *graph.Graph) *Sim {
	n, m := g.N(), g.M()
	s := &Sim{
		g:          g,
		nodeCommit: make([]int32, n),
		edgeCommit: make([]int32, m),
		nodeOut:    make([]int32, n),
		edgeOut:    make([]int32, m),
	}
	for i := range s.nodeCommit {
		s.nodeCommit[i] = -1
	}
	for i := range s.edgeCommit {
		s.edgeCommit[i] = -1
	}
	return s
}

// Graph returns the underlying graph.
func (s *Sim) Graph() *graph.Graph { return s.g }

// Clock returns the current round.
func (s *Sim) Clock() int { return int(s.clock) }

// Advance charges rounds to the global clock; reason documents which
// distributed subroutine the phase stands for.
func (s *Sim) Advance(rounds int, reason string) {
	if rounds < 0 {
		s.errs = append(s.errs, fmt.Errorf("locality: negative charge %d (%s)", rounds, reason))
		return
	}
	s.clock += int32(rounds)
}

// CommitNode fixes node v's output at the current clock.
func (s *Sim) CommitNode(v int, out int32) {
	if s.nodeCommit[v] >= 0 {
		s.errs = append(s.errs, fmt.Errorf("locality: node %d committed twice (round %d)", v, s.clock))
		return
	}
	s.nodeCommit[v] = s.clock
	s.nodeOut[v] = out
}

// CommitEdge fixes edge e's output at the current clock.
func (s *Sim) CommitEdge(e int, out int32) {
	if s.edgeCommit[e] >= 0 {
		s.errs = append(s.errs, fmt.Errorf("locality: edge %d committed twice (round %d)", e, s.clock))
		return
	}
	s.edgeCommit[e] = s.clock
	s.edgeOut[e] = out
}

// CommitNodeAt fixes node v's output at a specific past round (the round
// the information determining the output was available); round must not
// exceed the current clock.
func (s *Sim) CommitNodeAt(v int, out int32, round int) {
	if round < 0 || round > int(s.clock) {
		s.errs = append(s.errs, fmt.Errorf("locality: node %d commit at %d outside [0,%d]", v, round, s.clock))
		return
	}
	if s.nodeCommit[v] >= 0 {
		s.errs = append(s.errs, fmt.Errorf("locality: node %d committed twice", v))
		return
	}
	s.nodeCommit[v] = int32(round)
	s.nodeOut[v] = out
}

// CommitEdgeAt fixes edge e's output at a specific past round.
func (s *Sim) CommitEdgeAt(e int, out int32, round int) {
	if round < 0 || round > int(s.clock) {
		s.errs = append(s.errs, fmt.Errorf("locality: edge %d commit at %d outside [0,%d]", e, round, s.clock))
		return
	}
	if s.edgeCommit[e] >= 0 {
		s.errs = append(s.errs, fmt.Errorf("locality: edge %d committed twice", e))
		return
	}
	s.edgeCommit[e] = int32(round)
	s.edgeOut[e] = out
}

// Result packages the ledger; it errors if any commit error occurred.
func (s *Sim) Result() (*runtime.Result, error) {
	if len(s.errs) > 0 {
		return nil, fmt.Errorf("locality: %d errors, first: %w", len(s.errs), s.errs[0])
	}
	return &runtime.Result{
		Rounds:     int(s.clock),
		NodeCommit: s.nodeCommit,
		EdgeCommit: s.edgeCommit,
		NodeHalt:   s.nodeCommit,
		NodeOut:    s.nodeOut,
		EdgeOut:    s.edgeOut,
	}, nil
}
