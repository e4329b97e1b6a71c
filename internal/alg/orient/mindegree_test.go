package orient_test

import (
	"fmt"
	"strings"
	"testing"

	"avgloc/internal/registry"
	"avgloc/internal/scenario"
)

// TestRunnersRefuseLowDegree: on a tree (minimum degree 1) all three
// runners fail with the same minimum-degree error, whatever the seed and
// trial count, so whether a spec is served never depends on which trial
// happened to produce a valid orientation.
func TestRunnersRefuseLowDegree(t *testing.T) {
	for _, alg := range []string{"orient/det-averaged", "orient/det-worstcase", "orient/rand-marking"} {
		for _, trials := range []int{1, 3} {
			for _, seed := range []uint64{1, 7} {
				t.Run(fmt.Sprintf("%s/trials=%d/seed=%d", alg, trials, seed), func(t *testing.T) {
					spec := &scenario.Spec{Graph: "tree", Params: registry.Values{"n": 64},
						Algorithm: alg, Trials: trials, Seed: seed}
					_, err := scenario.Run(spec, scenario.Options{Parallelism: 1})
					want := alg + ": needs minimum degree 3, got 1"
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("error = %v, want one containing %q", err, want)
					}
				})
			}
		}
	}
}
