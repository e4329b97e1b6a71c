// Package runtimetest builds small runtime.Algorithm values for tests out
// of closures, one program per node and no slab.
package runtimetest

import "avgloc/internal/runtime"

// Func is a node program written as its Round function.
type Func func(ctx *runtime.Context, inbox []runtime.Message)

// Round implements runtime.Program.
func (f Func) Round(ctx *runtime.Context, inbox []runtime.Message) { f(ctx, inbox) }

// Algorithm returns the algorithm called name whose program for the node
// with a given view is node(view).
func Algorithm(name string, node func(view runtime.NodeView) Func) runtime.Algorithm {
	return algorithm{name: name, node: node}
}

type algorithm struct {
	name string
	node func(view runtime.NodeView) Func
}

func (a algorithm) Name() string { return a.name }

func (a algorithm) Nodes(views []runtime.NodeView, progs []runtime.Program, _ any) any {
	for v := range views {
		progs[v] = a.node(views[v])
	}
	return nil
}
