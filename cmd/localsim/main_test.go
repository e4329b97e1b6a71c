package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"avgloc/internal/scenario"
)

// TestReportIsRowZeroOfRun: localsim measures the same scenario that
// avgserve's /v1/run serves for its flags, so every number it prints is
// row 0 of scenario.Run for that spec and seed.
func TestReportIsRowZeroOfRun(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-graph", "regular", "-params", "n=256,d=4", "-alg", "mis/luby", "-trials", "3", "-seed", "7"}, &got); err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{Graph: "regular", Params: map[string]float64{"n": 256, "d": 4}, Algorithm: "mis/luby", Trials: 3, Seed: 7}
	out, err := scenario.Run(&spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Rows[0].Report
	want := []string{
		fmt.Sprintf("graph:      %s\n", rep.Graph),
		fmt.Sprintf("algorithm:  %s (problem %s, %d trials)\n", rep.Algorithm, rep.Problem, rep.Trials),
		fmt.Sprintf("AVG_V:      %.2f\n", rep.NodeAvg),
		fmt.Sprintf("AVG_E:      %.2f\n", rep.EdgeAvg),
		fmt.Sprintf("EXP_V:      %.2f\n", rep.ExpNode),
		fmt.Sprintf("EXP_E:      %.2f\n", rep.ExpEdge),
		fmt.Sprintf("E[worst]:   %.2f\n", rep.WorstMean),
		fmt.Sprintf("max worst:  %.2f\n", rep.WorstMax),
		fmt.Sprintf("one-sided AVG_E (footnote 2): %.2f\n", rep.OneSidedEdgeAvg),
		fmt.Sprintf("messages/trial: %.0f\n", rep.Messages),
	}
	if g := got.String(); g != strings.Join(want, "") {
		t.Fatalf("localsim report differs from row 0 of scenario.Run\nlocalsim:\n%s\nscenario.Run:\n%s", g, strings.Join(want, ""))
	}
	// The value /v1/run serves for this spec.
	if !strings.Contains(got.String(), "AVG_V:      2.39\n") {
		t.Fatalf("AVG_V moved from 2.39:\n%s", got.String())
	}
}
