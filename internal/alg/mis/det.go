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

// detSlab holds a Det run's programs and the arena of their MIS stages.
type detSlab struct {
	nodes []detNode
	mis   coloring.MISArena
}

// Nodes implements runtime.Algorithm.
func (Det) Nodes(views []runtime.NodeView, progs []runtime.Program, slab any) any {
	s, _ := slab.(*detSlab)
	if s == nil {
		s = new(detSlab)
	}
	s.nodes = runtime.Reslice(s.nodes, len(views))
	s.mis.Fill(views, func(v int) *coloring.MIS { return &s.nodes[v].mis })
	for v := range s.nodes {
		progs[v] = &s.nodes[v]
	}
	return s
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
