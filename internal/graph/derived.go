package graph

// LineGraph returns the line graph L(g): one node per edge of g, with two
// nodes adjacent iff the corresponding edges of g share an endpoint.
//
// The paper (Section 1.1) uses the identity "maximal matching of G = MIS of
// L(G)": the node-averaged complexity of MIS on L(G) equals the
// edge-averaged complexity of maximal matching on G. Node i of L(g) is edge
// i of g.
func LineGraph(g *Graph) *Graph {
	b := NewBuilder(g.M())
	seen := make(map[int64]struct{})
	for v := 0; v < g.N(); v++ {
		ids := g.EdgeIDs(v)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, c := ids[i], ids[j]
				if a == c {
					continue // parallel edges of g map to the same line node
				}
				x, y := a, c
				if x > y {
					x, y = y, x
				}
				key := int64(x)<<32 | int64(y)
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				b.AddEdge(int(a), int(c))
			}
		}
	}
	return b.MustBuild()
}
