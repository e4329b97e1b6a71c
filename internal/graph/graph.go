// Package graph provides the static undirected graph substrate used by the
// LOCAL/CONGEST simulator and by the lower-bound constructions: CSR-style
// adjacency with port numbering and edge identifiers, generators, derived
// graphs (line graph, power graph), traversal helpers and output validators.
//
// Nodes are indexed 0..N()-1. Each node's incident edges are numbered by
// local ports 0..Deg(v)-1, matching the port-numbering convention of the
// LOCAL model (Section 2 of the paper). Each undirected edge has a global
// edge id 0..M()-1 shared by both endpoints.
package graph

import (
	"errors"
	"fmt"
)

// Graph is an immutable undirected graph. Parallel edges are permitted
// (they arise naturally in intermediate constructions); self-loops are not.
//
// The zero value is the empty graph with no nodes.
type Graph struct {
	n       int
	offsets []int32 // len n+1; arcs of node v are offsets[v]..offsets[v+1]
	neigh   []int32 // len 2m; neighbor endpoint of each arc
	edgeID  []int32 // len 2m; global edge id of each arc
	twin    []int32 // len 2m; index of the reverse arc
	eu, ev  []int32 // len m; canonical endpoints of each edge (eu < ev)
	maxDeg  int     // cached maximum degree, fixed at build time
}

// ErrSelfLoop is returned by builders when an edge joins a node to itself.
var ErrSelfLoop = errors.New("graph: self-loop not permitted")

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges [][2]int32
	err   error
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make([][2]int32, 0, 2*n)}
}

// AddEdge records the undirected edge {u, v}. Errors are sticky and
// reported by Build.
func (b *Builder) AddEdge(u, v int) {
	if b.err != nil {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		return
	}
	if u == v {
		b.err = fmt.Errorf("%w: node %d", ErrSelfLoop, u)
		return
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalizes the graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	return fromEdges(b.n, b.edges)
}

// MustBuild is Build for graphs known to be well formed (generators, tests).
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges constructs a graph on n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func fromEdges(n int, edges [][2]int32) (*Graph, error) {
	m := len(edges)
	g := &Graph{
		n:       n,
		offsets: make([]int32, n+1),
		neigh:   make([]int32, 2*m),
		edgeID:  make([]int32, 2*m),
		twin:    make([]int32, 2*m),
		eu:      make([]int32, m),
		ev:      make([]int32, m),
	}
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
		if int(deg[v]) > g.maxDeg {
			g.maxDeg = int(deg[v])
		}
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for id, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		g.eu[id], g.ev[id] = u, v
		au, av := cursor[u], cursor[v]
		cursor[u]++
		cursor[v]++
		g.neigh[au], g.neigh[av] = v, u
		g.edgeID[au], g.edgeID[av] = int32(id), int32(id)
		g.twin[au], g.twin[av] = av, au
	}
	return g, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.eu) }

// Deg returns the degree of node v (counting parallel edges).
func (g *Graph) Deg(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbor returns the node at the other end of v's port p.
func (g *Graph) Neighbor(v, p int) int {
	return int(g.neigh[g.offsets[v]+int32(p)])
}

// EdgeID returns the global edge id of v's port p.
func (g *Graph) EdgeID(v, p int) int {
	return int(g.edgeID[g.offsets[v]+int32(p)])
}

// TwinPort returns the port at which the neighbor across v's port p sees v,
// i.e. if u = Neighbor(v, p) then Neighbor(u, TwinPort(v, p)) == v over the
// same physical edge.
func (g *Graph) TwinPort(v, p int) int {
	t := g.twin[g.offsets[v]+int32(p)]
	u := g.neigh[g.offsets[v]+int32(p)]
	return int(t - g.offsets[u])
}

// Endpoints returns the endpoints (u, v) of edge e with u <= v.
func (g *Graph) Endpoints(e int) (int, int) {
	return int(g.eu[e]), int(g.ev[e])
}

// Neighbors returns the neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neigh[g.offsets[v]:g.offsets[v+1]]
}

// Arcs returns the CSR arc layout: node v's port p is arc offsets[v]+p,
// so v's arcs are offsets[v]..offsets[v+1]-1, and twin[a] is the reverse
// arc of a (the arc at which the neighbor across a sees v). The returned
// slices alias internal storage and must not be modified.
func (g *Graph) Arcs() (offsets, twin []int32) {
	return g.offsets, g.twin
}

// Heads returns the arc-head array of the CSR layout: heads[a] is the node
// at the far end of arc a, so node v's port p leads to heads[offsets[v]+p].
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) Heads() []int32 { return g.neigh }

// EdgeIDs returns the per-port edge ids of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) EdgeIDs(v int) []int32 {
	return g.edgeID[g.offsets[v]:g.offsets[v+1]]
}

// MaxDegree returns the maximum degree, or 0 for the empty graph. The value
// is computed once at build time, so calling it in per-node loops is free.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// MinDegree returns the minimum degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	d := g.Deg(0)
	for v := 1; v < g.n; v++ {
		if dv := g.Deg(v); dv < d {
			d = dv
		}
	}
	return d
}

// HasEdge reports whether some edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Deg(u) > g.Deg(v) {
		u, v = v, u
	}
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// PortTo returns some port of u whose neighbor is v, or -1 if none exists.
func (g *Graph) PortTo(u, v int) int {
	for p, w := range g.Neighbors(u) {
		if int(w) == v {
			return p
		}
	}
	return -1
}

// Edges returns a fresh copy of the edge list, indexed by edge id.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, g.M())
	for e := range out {
		out[e] = [2]int{int(g.eu[e]), int(g.ev[e])}
	}
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.n, g.M(), g.MaxDegree())
}
