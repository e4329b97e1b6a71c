package mis

import (
	"avgloc/internal/alg/coloring"
	"avgloc/internal/runtime"
)

// Det is the deterministic MIS via coloring: Linial's O(Δ²)-coloring, the
// Kuhn–Wattenhofer reduction to Δ+1 colors, and a color-class sweep
// ([BEK15] shape). On cycles this is the classic Θ(log* n) algorithm whose
// node-averaged complexity Feuilloley [Feu20] proved is also Θ(log* n) for
// deterministic algorithms — the E10 contrast with Luby's O(1)-node-avg
// randomized behaviour on constant degree.
type Det struct{}

// Name implements runtime.Algorithm.
func (Det) Name() string { return "mis/det-coloring" }

// Node implements runtime.Algorithm.
func (Det) Node(view runtime.NodeView) runtime.Program {
	return &detNode{mis: coloring.NewMIS(view.ID, view.N, view.MaxDegree)}
}

type detNode struct{ mis coloring.MIS }

var _ runtime.Program = (*detNode)(nil)

func (n *detNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	if !n.mis.Round(ctx, inbox) {
		return
	}
	if n.mis.Joined() {
		ctx.CommitNode(In)
	} else {
		ctx.CommitNode(Out)
	}
	ctx.Halt()
}
