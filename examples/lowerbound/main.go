// Lower-bound construction walkthrough (Section 4): build a cluster tree
// skeleton, realize it as a base graph, lift it, verify the k-hop
// indistinguishability of S(c0) and S(c1) with Algorithm 1, then run an MIS
// algorithm on the lift and measure when S(c0) decides and how much of it
// joins the MIS.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"avgloc/internal/alg/mis"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/iso"
	"avgloc/internal/lb/lift"
	"avgloc/internal/runtime"
)

func main() {
	const k, beta, q = 1, 4, 8
	base, err := basegraph.Build(basegraph.Params{K: k, Beta: beta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CT_%d realized as %v; |S(c0)| = %d\n", k, base.G, len(base.Clusters[0]))

	rng := rand.New(rand.NewPCG(20, 22))
	inst, err := lift.BuildInstance(base, q, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("order-%d random lift: %v, girth %d\n", q, inst.G, inst.G.Girth())

	// Theorem 11: tree-like views of S(c0) and S(c1) are indistinguishable.
	var v0, v1 int32 = -1, -1
	for _, v := range inst.Cluster(0) {
		if inst.G.TreelikeBall(int(v), k) {
			v0 = v
			break
		}
	}
	for _, v := range inst.Cluster(1) {
		if inst.G.TreelikeBall(int(v), k) {
			v1 = v
			break
		}
	}
	phi, err := iso.FindIsomorphism(inst, k, v0, v1)
	if err != nil {
		log.Fatal(err)
	}
	if err := iso.VerifyViewIsomorphism(inst.G, phi, v0, v1, k); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 1: radius-%d views of node %d ∈ S(c0) and node %d ∈ S(c1)\n", k, v0, v1)
	fmt.Printf("are isomorphic (%d view nodes mapped and verified)\n\n", len(phi))

	// Under Luby's MIS, compare S(c0)'s commit rounds with the rest of the
	// graph and count the share of S(c0) in the MIS. The share is a
	// measurement of this run; it varies with the lift and the algorithm.
	res, err := runtime.Run(inst.G, mis.Luby{}, runtime.Config{
		IDs:  ids.RandomPerm(inst.G.N(), rng),
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	set := mis.SetFromResult(res)
	if err := graph.IsMaximalIndependentSet(inst.G, set); err != nil {
		log.Fatal(err)
	}
	s0 := inst.Cluster(0)
	inSet := make(map[int32]bool, len(s0))
	for _, v := range s0 {
		inSet[v] = true
	}
	var s0Sum, restSum float64
	var s0N, restN int
	joined := 0
	for v := 0; v < inst.G.N(); v++ {
		t := float64(res.NodeCommit[v])
		if inSet[int32(v)] {
			s0Sum += t
			s0N++
			if set[v] {
				joined++
			}
		} else {
			restSum += t
			restN++
		}
	}
	fmt.Printf("Luby MIS commit rounds: S(c0) average %.1f vs rest %.1f\n", s0Sum/float64(s0N), restSum/float64(restN))
	fmt.Printf("S(c0) members that joined this MIS: %.0f%%\n",
		100*float64(joined)/float64(s0N))
}
