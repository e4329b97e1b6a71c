// Package basegraph realizes the low-girth base graph G_k ∈ 𝒢_k of
// Section 4.6 from a cluster tree skeleton: every skeleton node v becomes a
// cluster S(v) of size 2β^{k+1}(β/2)^{k+1-d(v)}; self-loops (v,v,β^i)
// become t disjoint β^i-cliques plus a perfect matching between paired
// cliques; skeleton edge pairs (p,v,2β^i)/(v,p,β^{i+1}) become complete
// bipartite blocks K_{β^{i+1},2β^i} between matched groups; S(c0) is an
// independent set.
//
// The paper's lower-bound constants need β = Ω(k² log k); the construction
// itself only needs β even and ≥ 4, which is what laptop-scale experiments
// use (the e6 and e9 campaign scenarios run at β = 4).
package basegraph

import (
	"fmt"

	"avgloc/internal/graph"
	"avgloc/internal/lb/clustertree"
)

// Params selects the family member.
type Params struct {
	K    int
	Beta int // even, >= 4
}

// ArcLabel is the Definition 8 label of one direction of an edge: the
// exponent i of β^i, plus the self flag for intra-cluster edges.
type ArcLabel struct {
	Exp  int8
	Self bool
}

// Instance is a constructed member of 𝒢_k with its provenance.
type Instance struct {
	Params    Params
	CT        *clustertree.Skeleton
	G         *graph.Graph
	ClusterOf []int32   // graph node -> skeleton node
	Clusters  [][]int32 // skeleton node -> graph nodes
	// Labels[arc]: Definition 8 label of each directed edge; arc (v,p) is
	// indexed by ArcIndex.
	labels map[[2]int32]ArcLabel
}

// Build constructs G_k(β).
func Build(p Params) (*Instance, error) {
	if p.K < 0 {
		return nil, fmt.Errorf("basegraph: k must be >= 0")
	}
	if p.Beta < 4 || p.Beta%2 != 0 {
		return nil, fmt.Errorf("basegraph: beta must be even and >= 4, got %d", p.Beta)
	}
	ct, err := clustertree.Build(p.K)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		Params:   p,
		CT:       ct,
		Clusters: make([][]int32, len(ct.Nodes)),
		labels:   make(map[[2]int32]ArcLabel),
	}

	// Cluster sizes: |S(v)| = 2β^{k+1}(β/2)^{k+1-d(v)}.
	total := 0
	sizes := make([]int, len(ct.Nodes))
	for v, nd := range ct.Nodes {
		sizes[v] = 2 * pow(p.Beta, p.K+1) * pow(p.Beta/2, p.K+1-nd.Depth)
		total += sizes[v]
	}
	next := int32(0)
	clusterOf := make([]int32, 0, total)
	for v := range ct.Nodes {
		nodes := make([]int32, sizes[v])
		for i := range nodes {
			nodes[i] = next
			next++
			clusterOf = append(clusterOf, int32(v))
		}
		inst.Clusters[v] = nodes
	}
	inst.ClusterOf = clusterOf

	b := graph.NewBuilder(total)
	label := func(u, v int32, exp int, self bool) {
		inst.labels[[2]int32{u, v}] = ArcLabel{Exp: int8(exp), Self: self}
	}

	// Intra-cluster structure from self-loops: t disjoint cliques of size
	// β^i; clique j matched perfectly with clique t/2+j.
	for v, nd := range ct.Nodes {
		if v == 0 {
			continue // S(c0) stays independent
		}
		i := nd.Psi
		cs := pow(p.Beta, i)
		nodes := inst.Clusters[v]
		t := len(nodes) / cs
		if t*cs != len(nodes) || t%2 != 0 {
			return nil, fmt.Errorf("basegraph: cluster %d size %d not divisible into an even number of β^%d cliques", v, len(nodes), i)
		}
		clique := func(j int) []int32 { return nodes[j*cs : (j+1)*cs] }
		for j := 0; j < t; j++ {
			cl := clique(j)
			for a := 0; a < cs; a++ {
				for bb := a + 1; bb < cs; bb++ {
					b.AddEdge(int(cl[a]), int(cl[bb]))
					label(cl[a], cl[bb], i, true)
					label(cl[bb], cl[a], i, true)
				}
			}
		}
		for j := 0; j < t/2; j++ {
			cj, ck := clique(j), clique(t/2+j)
			for a := 0; a < cs; a++ {
				b.AddEdge(int(cj[a]), int(ck[a]))
				label(cj[a], ck[a], i, true)
				label(ck[a], cj[a], i, true)
			}
		}
	}

	// Inter-cluster blocks: for the pair (p,v,2β^i), (v,p,β^{i+1}), group
	// S(p) into groups of β^{i+1} and S(v) into groups of 2β^i; matched
	// groups connect as K_{β^{i+1}, 2β^i}.
	for v, nd := range ct.Nodes {
		if v == 0 {
			continue
		}
		par := nd.Parent
		i := nd.Psi - 1 // down edge (p,v,2β^i) has exponent ψ(v)-1
		gp := pow(p.Beta, i+1)
		gv := 2 * pow(p.Beta, i)
		pn, vn := inst.Clusters[par], inst.Clusters[v]
		if len(pn)%gp != 0 || len(vn)%gv != 0 || len(pn)/gp != len(vn)/gv {
			return nil, fmt.Errorf("basegraph: group mismatch between clusters %d and %d", par, v)
		}
		t := len(pn) / gp
		for j := 0; j < t; j++ {
			pg := pn[j*gp : (j+1)*gp]
			vg := vn[j*gv : (j+1)*gv]
			for _, x := range pg {
				for _, y := range vg {
					b.AddEdge(int(x), int(y))
					label(x, y, i, false)
					label(y, x, i+1, false)
				}
			}
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	inst.G = g
	return inst, nil
}

// Label returns the Definition 8 label of the arc u→v.
func (inst *Instance) Label(u, v int32) (ArcLabel, bool) {
	l, ok := inst.labels[[2]int32{u, v}]
	return l, ok
}

// Graph returns the underlying graph (iso.Labeled).
func (inst *Instance) Graph() *graph.Graph { return inst.G }

// MaxExp returns the largest label exponent, k+1 (iso.Labeled).
func (inst *Instance) MaxExp() int { return inst.Params.K + 1 }

// Validate checks the defining 𝒢_k property: for every skeleton edge
// (v',u',x), every node of S(v') has exactly x neighbors in S(u'), and no
// unexpected adjacencies exist.
func (inst *Instance) Validate() error {
	ct := inst.CT
	beta := inst.Params.Beta
	want := make(map[[2]int]int) // (skeleton from, to) -> required count
	for _, e := range ct.Edges {
		x := pow(beta, e.Exp)
		if e.Double {
			x *= 2
		}
		want[[2]int{e.From, e.To}] = x
	}
	counts := make(map[int]int) // per-node scratch: skeleton target -> count
	for v := 0; v < inst.G.N(); v++ {
		clear(counts)
		for _, u := range inst.G.Neighbors(v) {
			counts[int(inst.ClusterOf[u])]++
		}
		from := int(inst.ClusterOf[v])
		for to, got := range counts {
			x, ok := want[[2]int{from, to}]
			if !ok {
				return fmt.Errorf("basegraph: unexpected adjacency S(%d)->S(%d)", from, to)
			}
			if got != x {
				return fmt.Errorf("basegraph: node %d in S(%d) has %d neighbors in S(%d), want %d", v, from, got, to, x)
			}
		}
		for pair, x := range want {
			if pair[0] == from && counts[pair[1]] != x {
				return fmt.Errorf("basegraph: node %d in S(%d) has %d neighbors in S(%d), want %d",
					v, from, counts[pair[1]], pair[1], x)
			}
		}
	}
	return nil
}

// IndependenceBound returns the Lemma 13 upper bound α(G_k[S(v)]) <=
// |S(v)|/β^ψ(v) for a non-root cluster (the disjoint-clique cover).
func (inst *Instance) IndependenceBound(v int) int {
	if v == 0 {
		return len(inst.Clusters[0])
	}
	return len(inst.Clusters[v]) / pow(inst.Params.Beta, inst.CT.Nodes[v].Psi)
}

func pow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}
