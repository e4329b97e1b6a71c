// Sinkless orientation (Section 3.3, Theorem 6): the deterministic
// algorithm's node average stays flat while the worst case — like the
// baseline's every column — grows with log n; the randomized marking
// algorithm is O(1) on average.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"avgloc/internal/alg/orient"
	"avgloc/internal/core"
	"avgloc/internal/graph"
)

func main() {
	rng := rand.New(rand.NewPCG(3, 33))
	detAvg, detWorst, randMark := orient.DetAveraged{}, orient.DetWorstCase{}, orient.RandMarking{}

	fmt.Println("n       thm6 AVG_V  thm6 worst  baseline AVG_V  baseline worst  rand AVG_V")
	for _, n := range []int{512, 2048, 8192, 32768} {
		g := graph.RandomRegular(n, 3, rng)
		opts := core.MeasureOptions{Trials: 1, Seed: 9}
		a, err := core.Measure(g, core.SinklessOrientation, detAvg, opts)
		if err != nil {
			log.Fatal(err)
		}
		b, err := core.Measure(g, core.SinklessOrientation, detWorst, opts)
		if err != nil {
			log.Fatal(err)
		}
		r, err := core.Measure(g, core.SinklessOrientation, randMark, core.MeasureOptions{Trials: 3, Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7d %-11.1f %-11.1f %-15.1f %-15.1f %.1f\n",
			n, a.NodeAvg, a.WorstMax, b.NodeAvg, b.WorstMax, r.NodeAvg)
	}
	fmt.Println()
	fmt.Println("Theorem 6: the thm6 AVG_V column is flat (its absolute level carries the")
	fmt.Println("r=2 constants); both worst-case columns grow like log n, as they must —")
	fmt.Println("deterministic sinkless orientation has a Θ(log n) worst-case lower bound.")
}
