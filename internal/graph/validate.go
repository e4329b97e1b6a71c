package graph

import "fmt"

// IsIndependentSet reports whether no edge of g joins two members of in.
func IsIndependentSet(g *Graph, in []bool) error {
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if in[u] && in[v] {
			return fmt.Errorf("graph: edge {%d,%d} joins two set members", u, v)
		}
	}
	return nil
}

// IsMaximalIndependentSet reports whether in is an MIS of g: independent,
// with every non-member adjacent to a member.
func IsMaximalIndependentSet(g *Graph, in []bool) error {
	if err := IsIndependentSet(g, in); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("graph: node %d is uncovered (not maximal)", v)
		}
	}
	return nil
}

// IsRulingSet reports whether in is a (2, beta)-ruling set: an independent
// set such that every node is within distance beta of a member.
func IsRulingSet(g *Graph, in []bool, beta int) error {
	if err := IsIndependentSet(g, in); err != nil {
		return err
	}
	r, err := DominationRadius(g, in)
	if err != nil {
		return err
	}
	if r > beta {
		return fmt.Errorf("graph: domination radius %d exceeds beta=%d", r, beta)
	}
	return nil
}

// DominationRadius returns the maximum, over all nodes, of the distance to
// the nearest member of in. It errors if in is empty while g has nodes, or
// if some node cannot reach the set.
func DominationRadius(g *Graph, in []bool) (int, error) {
	if g.N() == 0 {
		return 0, nil
	}
	var sources []int
	for v := 0; v < g.N(); v++ {
		if in[v] {
			sources = append(sources, v)
		}
	}
	if len(sources) == 0 {
		return 0, fmt.Errorf("graph: empty dominating set")
	}
	dist := g.MultiSourceBFS(sources)
	radius := 0
	for v, d := range dist {
		if d < 0 {
			return 0, fmt.Errorf("graph: node %d cannot reach the set", v)
		}
		if int(d) > radius {
			radius = int(d)
		}
	}
	return radius, nil
}

// IsMatching reports whether the edge set in (indexed by edge id) is a
// matching: no two chosen edges share an endpoint.
func IsMatching(g *Graph, in []bool) error {
	matched := make([]bool, g.N())
	for e := 0; e < g.M(); e++ {
		if !in[e] {
			continue
		}
		u, v := g.Endpoints(e)
		if matched[u] {
			return fmt.Errorf("graph: node %d matched twice", u)
		}
		if matched[v] {
			return fmt.Errorf("graph: node %d matched twice", v)
		}
		matched[u], matched[v] = true, true
	}
	return nil
}

// IsMaximalMatching reports whether in is a maximal matching: a matching
// such that every edge has a matched endpoint.
func IsMaximalMatching(g *Graph, in []bool) error {
	if err := IsMatching(g, in); err != nil {
		return err
	}
	matched := make([]bool, g.N())
	for e := 0; e < g.M(); e++ {
		if in[e] {
			u, v := g.Endpoints(e)
			matched[u], matched[v] = true, true
		}
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if !matched[u] && !matched[v] {
			return fmt.Errorf("graph: edge {%d,%d} uncovered (not maximal)", u, v)
		}
	}
	return nil
}

// Orientation assigns a direction to every edge: Toward[e] is the node the
// edge points at (one of the two endpoints of e).
type Orientation struct {
	Toward []int32 // len M(); Toward[e] in {eu, ev} of edge e
}

// NewOrientation returns an orientation with all directions unset (-1).
func NewOrientation(g *Graph) *Orientation {
	t := make([]int32, g.M())
	for i := range t {
		t[i] = -1
	}
	return &Orientation{Toward: t}
}

// Orient directs edge e from node `from` toward the other endpoint.
func (o *Orientation) Orient(g *Graph, e, from int) error {
	u, v := g.Endpoints(e)
	switch from {
	case u:
		o.Toward[e] = int32(v)
	case v:
		o.Toward[e] = int32(u)
	default:
		return fmt.Errorf("graph: node %d not an endpoint of edge %d", from, e)
	}
	return nil
}

// OutDegree returns the out-degree of v under o (unset edges don't count).
func (o *Orientation) OutDegree(g *Graph, v int) int {
	d := 0
	for _, e := range g.EdgeIDs(v) {
		t := o.Toward[e]
		if t >= 0 && int(t) != v {
			d++
		}
	}
	return d
}

// IsSinkless reports whether every node with degree >= minDeg has at least
// one outgoing edge, and that every edge is oriented.
func IsSinkless(g *Graph, o *Orientation, minDeg int) error {
	for e := 0; e < g.M(); e++ {
		if o.Toward[e] < 0 {
			return fmt.Errorf("graph: edge %d unoriented", e)
		}
		u, v := g.Endpoints(e)
		if t := int(o.Toward[e]); t != u && t != v {
			return fmt.Errorf("graph: edge %d oriented toward non-endpoint %d", e, t)
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) < minDeg {
			continue
		}
		if o.OutDegree(g, v) == 0 {
			return fmt.Errorf("graph: node %d is a sink", v)
		}
	}
	return nil
}

// IsProperColoring reports whether no edge joins two equal colors and all
// colors are in [0, limit) (limit <= 0 disables the range check).
func IsProperColoring(g *Graph, color []int, limit int) error {
	for v := 0; v < g.N(); v++ {
		if limit > 0 && (color[v] < 0 || color[v] >= limit) {
			return fmt.Errorf("graph: node %d has color %d outside [0,%d)", v, color[v], limit)
		}
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if color[u] == color[v] {
			return fmt.Errorf("graph: edge {%d,%d} monochromatic (color %d)", u, v, color[u])
		}
	}
	return nil
}
