// Package coloring implements the symmetry-breaking toolbox that the
// paper's deterministic algorithms build on:
//
//   - Cole–Vishkin color reduction on pseudoforests (O(log* n) rounds to 6
//     colors), used by the deterministic ruling sets of Theorem 3 and the
//     deterministic matching of Theorem 5;
//   - Linial's O(Δ²)-coloring via polynomials over GF(q) [Lin87];
//   - the Kuhn–Wattenhofer reduction to Δ+1 colors;
//   - an MIS sweep over color classes (a proper q-coloring yields an MIS in
//     q rounds), and the Linial → reduction → sweep MIS built from them;
//   - the randomized (Δ+1)-coloring whose node-averaged complexity is O(1)
//     ([Joh99], observed by [BT19], discussed in Section 1.2).
//
// The deterministic pieces are stages: resumable structs that a node
// program drives one round per Round(ctx, inbox) call, and that report
// done in the round their result is fixed. Multi-phase programs chain
// them in lockstep; every node must run the same stage with consistent
// arguments in the same rounds. A stage's first call happens in the round
// where the previous stage (or the program's own preamble) finished, so it
// must not read that round's inbox — the previous stage already consumed
// it; callers pass nil. A stage with nothing to do (Linial with a
// one-entry schedule, ReduceColorsKW with q <= target) is done on its first
// call and sends nothing.
//
// Messages are runtime.Message values; every color rides in Val. The
// stages and RandGreedy use the kinds below FreeKind, and a program that
// chains the stages numbers its own kinds from FreeKind up.
package coloring

import (
	"math/rand/v2"

	"avgloc/internal/runtime"
)

// Message kinds.
const (
	kindCV     uint32 = iota + 1 // CV6: the sender's color
	kindSweep                    // MISSweep: the sender joined
	kindLinial                   // Linial: the sender's color
	kindReduce                   // ReduceColorsKW: the sender's color
	kindTry                      // RandGreedy: the sender tries a color
	kindFinal                    // RandGreedy: the sender keeps a color

	// FreeKind is the first message kind free for a program that chains
	// the stages.
	FreeKind
)

// CVRounds returns the number of Cole–Vishkin iterations needed to shrink
// colors of the given bit width below 6. It is a pure function so that all
// nodes agree on the schedule.
func CVRounds(bits int) int {
	// One CV step maps a width-w color to 2*i + b with i < w, so the new
	// value is < 2w and fits in ceil(log2(2w)) bits. Once width reaches 3
	// (values 0..7), a final step yields 2*i + b <= 5, i.e. 6 colors.
	rounds := 1
	for width := bits; width > 3; {
		width = bitsFor(2*width - 1)
		rounds++
	}
	return rounds
}

func bitsFor(v int) int {
	b := 1
	for 1<<b <= v {
		b++
	}
	return b
}

// CV6 runs Cole–Vishkin on a pseudoforest: every participating node has at
// most one parent (parentPort, or -1 for roots) and any number of children.
// The initial color must be a proper coloring along parent edges (unique
// identifiers qualify) of at most `bits` bits. The stage is done after
// CVRounds(bits) exchanges, and Color is then in {0..5} and proper along
// parent edges, hence a proper 6-coloring of the pseudoforest.
//
// Roots use their own color with the lowest bit flipped as a virtual parent
// color, the standard trick.
type CV6 struct {
	color      int64
	parentPort int
	left       int // exchanges still to run
	started    bool
}

// NewCV6 returns a Cole–Vishkin stage starting from color initial.
func NewCV6(initial int64, bits, parentPort int) CV6 {
	return CV6{color: initial, parentPort: parentPort, left: CVRounds(bits)}
}

// Round advances the stage by one round and reports whether it is done.
func (s *CV6) Round(ctx *runtime.Context, inbox []runtime.Message) bool {
	if s.started {
		parent := s.color ^ 1 // virtual parent for roots
		if s.parentPort >= 0 {
			if m := inbox[s.parentPort]; m.Kind == kindCV {
				parent = m.Val
			}
		}
		i := lowestDifferingBit(s.color, parent)
		s.color = int64(2*i) + (s.color>>uint(i))&1
		s.left--
	}
	s.started = true
	if s.left == 0 {
		return true
	}
	ctx.Broadcast(runtime.Message{Kind: kindCV, Val: s.color})
	return false
}

// Color returns the current color; in {0..5} once the stage is done.
func (s *CV6) Color() int { return int(s.color) }

func lowestDifferingBit(a, b int64) int {
	x := a ^ b
	i := 0
	for x&1 == 0 {
		x >>= 1
		i++
	}
	return i
}

// MISSweep turns a proper q-coloring of the active subgraph into an MIS of
// it in q rounds: color class c decides in the stage's round c, joining
// unless an earlier-class neighbor joined. Silent ports (halted or
// non-member neighbors) never block.
type MISSweep struct {
	q, color, c     int
	blocked, joined bool
	started         bool
}

// NewMISSweep returns the sweep stage of a node holding myColor in [0, q).
func NewMISSweep(q, myColor int) MISSweep {
	return MISSweep{q: q, color: myColor}
}

// Round advances the stage by one round and reports whether it is done.
func (s *MISSweep) Round(ctx *runtime.Context, inbox []runtime.Message) bool {
	if s.started {
		for _, m := range inbox {
			if m.Kind == kindSweep {
				s.blocked = true
			}
		}
		s.c++
	}
	s.started = true
	if s.c >= s.q {
		return true
	}
	if s.c == s.color && !s.blocked {
		s.joined = true
		ctx.Broadcast(runtime.Message{Kind: kindSweep})
	}
	return false
}

// Joined reports MIS membership; final once the stage is done.
func (s *MISSweep) Joined() bool { return s.joined }

// LinialPlan is the schedule of Linial's coloring that every node of a
// run shares: the palette sizes, and the prime q and polynomial degree d
// of each step. It is a pure function of (space, maxDeg), so all nodes
// agree on it, and a run builds it once from the global N and MaxDegree
// rather than once per node.
type LinialPlan struct {
	sched []int64 // palette sizes: sched[0] == space, sched[t+1] == q[t]²
	q, d  []int64 // step t reduces palette sched[t] with prime q[t], degree d[t]
}

// Build fills p with the plan for nodes with identifiers below space in
// graphs of maximum degree maxDeg, reusing p's storage. The plan runs
// len(sched)-1 steps (O(log* space) many) to a final palette of O(maxDeg²).
func (p *LinialPlan) Build(space int64, maxDeg int) {
	if maxDeg < 1 {
		maxDeg = 1
	}
	p.sched, p.q, p.d = append(p.sched[:0], space), p.q[:0], p.d[:0]
	for cur := space; ; {
		q, ok := linialPrime(cur, maxDeg)
		if !ok || q*q >= cur {
			return
		}
		p.q, p.d = append(p.q, q), append(p.d, polyDegree(cur, q))
		cur = q * q
		p.sched = append(p.sched, cur)
	}
}

// Palette returns the final palette size.
func (p *LinialPlan) Palette() int64 { return p.sched[len(p.sched)-1] }

// LinialSchedule returns the palette sizes of Linial's coloring for nodes
// with identifiers below space in graphs of maximum degree maxDeg:
// schedule[0] == space and successive entries are q² for the chosen
// primes q; the last entry is the final palette size, reached after
// len(schedule)-1 rounds.
func LinialSchedule(space int64, maxDeg int) []int64 {
	var p LinialPlan
	p.Build(space, maxDeg)
	return p.sched
}

// linialPrime picks the prime q and (implicitly) polynomial degree d used
// to reduce a palette of size K: the smallest prime q such that for
// d = ceil(log_q K) - 1 we have q > maxDeg*d. Returns ok=false if no
// progress is possible.
func linialPrime(K int64, maxDeg int) (int64, bool) {
	if K <= 4 {
		return 0, false
	}
	for q := int64(2); q*q < 4*K; q = nextPrime(q + 1) {
		if !isPrime(q) {
			continue
		}
		d := polyDegree(K, q)
		if int64(maxDeg)*d < q {
			return q, true
		}
	}
	return 0, false
}

// polyDegree returns ceil(log_q K) - 1, the degree needed to encode a
// palette of size K as polynomials over GF(q).
func polyDegree(K, q int64) int64 {
	d := int64(0)
	pow := int64(1)
	for pow < K {
		// Guard against overflow: K, q are small in practice.
		pow *= q
		d++
	}
	if d == 0 {
		d = 1
	}
	return d - 1
}

func isPrime(n int64) bool {
	if n < 2 {
		return false
	}
	for f := int64(2); f*f <= n; f++ {
		if n%f == 0 {
			return false
		}
	}
	return true
}

func nextPrime(n int64) int64 {
	for !isPrime(n) {
		n++
	}
	return n
}

// Linial runs Linial's coloring over the active subgraph: starting from
// unique identifiers below the plan's space, after len(sched)-1 exchanges
// every node holds a color in [0, Palette()) proper on the active
// subgraph, with Palette() = O(maxDeg²). Silent ports are ignored.
type Linial struct {
	plan  *LinialPlan
	t     int // index into plan.sched of the palette being reduced; -1 before the first call
	color int64
}

// NewLinial returns the Linial stage of the node with identifier id,
// following plan, which every node of the run shares.
func NewLinial(id int64, plan *LinialPlan) Linial {
	return Linial{plan: plan, t: -1, color: id}
}

// Round advances the stage by one round and reports whether it is done.
func (s *Linial) Round(ctx *runtime.Context, inbox []runtime.Message) bool {
	if s.t >= 0 {
		s.color = linialStep(s.color, inbox, s.plan.q[s.t], s.plan.d[s.t])
	}
	s.t++
	if s.t+1 >= len(s.plan.sched) {
		return true
	}
	ctx.Broadcast(runtime.Message{Kind: kindLinial, Val: s.color})
	return false
}

// Color returns the current color.
func (s *Linial) Color() int64 { return s.color }

// Palette returns the final palette size.
func (s *Linial) Palette() int64 { return s.plan.Palette() }

// linialStep maps color (viewed as a degree-<=d polynomial over GF(q)) to
// (x, p(x)) for an evaluation point x where it differs from the
// polynomials of all colors the inbox's Linial messages carry. Such x
// exists because the at most maxDeg neighbor polynomials each agree with
// ours on at most d points and maxDeg*d < q.
func linialStep(color int64, inbox []runtime.Message, q, d int64) int64 {
	for x := int64(0); x < q; x++ {
		px := polyAt(color, x, q, d)
		ok := true
		for _, m := range inbox {
			if m.Kind == kindLinial && polyAt(m.Val, x, q, d) == px {
				ok = false
				break
			}
		}
		if ok {
			return x*q + px
		}
	}
	// Unreachable when the palette invariant holds (neighbors' colors are
	// distinct from ours); fall back to the identity to stay total.
	return color % (q * q)
}

// polyAt evaluates at x, over GF(q), the polynomial whose coefficients are
// the d+1 lowest base-q digits of c (the lowest digit is the constant
// term). At x = 0 that is the lowest digit alone.
func polyAt(c, x, q, d int64) int64 {
	if x == 0 {
		return c % q
	}
	var acc, pow int64 = 0, 1
	for i := int64(0); i <= d; i++ {
		acc = (acc + c%q*pow) % q
		c /= q
		pow = pow * x % q
	}
	return acc
}

type kwPhase uint8

const (
	kwStart    kwPhase = iota
	kwExchange         // initial exchange of active-neighbor colors
	kwHalve            // block-parallel halving, step s of target
	kwFinal            // one-color-at-a-time pass, eliminating color c
)

// ReduceColorsKW lowers a proper coloring from palette q to palette target
// (>= active degree + 1) with the Kuhn–Wattenhofer block-parallel scheme:
// after an initial exchange, the palette is split into blocks of 2*target
// colors and every block independently eliminates its upper half one color
// per round (different blocks recolor simultaneously into disjoint ranges,
// so this is conflict-free), halving the palette in target rounds; after
// O(log(q/target)) halvings a final one-at-a-time pass finishes. Total
// O(target * log(q/target)) rounds, where eliminating one color per round
// from the start would take O(q).
type ReduceColorsKW struct {
	color, target, K int64
	phase            kwPhase
	s, c             int64
	nbr              []int64 // port-indexed last color heard, -1 if none
	used             []bool  // scratch for smallestFreeIn
}

// NewReduceColorsKW returns the reduction stage of a node holding color in
// a proper q-coloring. nbr (one entry per port) and used (one more) are
// the stage's scratch; a run's programs carve them from shared arenas.
func NewReduceColorsKW(color, q, target int64, nbr []int64, used []bool) ReduceColorsKW {
	// At most len(nbr) colors are ever marked, so the smallest free color
	// of a target-wide range lies within its first len(nbr)+1 entries.
	return ReduceColorsKW{color: color, target: target, K: q, nbr: nbr, used: used[:min(int64(len(used)), target)]}
}

// Round advances the stage by one round and reports whether it is done.
func (s *ReduceColorsKW) Round(ctx *runtime.Context, inbox []runtime.Message) bool {
	if s.phase == kwStart {
		if s.K <= s.target {
			return true
		}
		for p := range s.nbr {
			s.nbr[p] = -1
		}
		s.phase = kwExchange
		ctx.Broadcast(runtime.Message{Kind: kindReduce, Val: s.color})
		return false
	}
	for p, m := range inbox {
		if m.Kind == kindReduce {
			s.nbr[p] = m.Val
		}
	}
	blockSize := 2 * s.target
	switch s.phase {
	case kwExchange:
		s.beginPass()
	case kwHalve:
		s.s++
		if s.s == s.target {
			// Everyone compacts blocks of 2*target surviving colors (all
			// in the lower half of their block) down to blocks of target:
			// a local renaming, applied to the cache as well.
			remap := func(c int64) int64 { return (c/blockSize)*s.target + c%blockSize }
			s.color = remap(s.color)
			for p, c := range s.nbr {
				if c >= 0 {
					s.nbr[p] = remap(c)
				}
			}
			s.K = ((s.K + blockSize - 1) / blockSize) * s.target
			s.beginPass()
		}
	case kwFinal:
		s.c--
	}
	switch s.phase {
	case kwHalve:
		if s.color%blockSize == s.target+s.s {
			base := (s.color / blockSize) * blockSize
			s.color = s.smallestFreeIn(base, base+s.target)
			ctx.Broadcast(runtime.Message{Kind: kindReduce, Val: s.color})
		}
	case kwFinal:
		if s.c < s.target {
			return true
		}
		if s.color == s.c {
			s.color = s.smallestFreeIn(0, s.target)
			ctx.Broadcast(runtime.Message{Kind: kindReduce, Val: s.color})
		}
	}
	return false
}

// beginPass starts a halving pass while the palette exceeds two blocks,
// and the final pass otherwise.
func (s *ReduceColorsKW) beginPass() {
	if s.K > 2*s.target {
		s.phase, s.s = kwHalve, 0
	} else {
		s.phase, s.c = kwFinal, s.K-1
	}
}

// Color returns the current color; in [0, target) once the stage is done.
func (s *ReduceColorsKW) Color() int64 { return s.color }

// smallestFreeIn returns the smallest color in [lo, hi) unused by the
// cached active-neighbor colors. Callers pass hi-lo == target, which
// exceeds the active degree; only the first len(used) colors of the
// range can be the answer.
func (s *ReduceColorsKW) smallestFreeIn(lo, hi int64) int64 {
	clear(s.used)
	end := lo + int64(len(s.used))
	for _, c := range s.nbr {
		if c >= lo && c < end {
			s.used[c-lo] = true
		}
	}
	for c := lo; c < end; c++ {
		if !s.used[c-lo] {
			return c
		}
	}
	return hi - 1 // unreachable under the degree precondition
}

type misPhase uint8

const (
	misLinial misPhase = iota
	misReduce
	misSweep
)

// MISArena holds what the MIS stages of one run's programs share: the
// Linial plan for identifiers below max(n², 4), the reduction target Δ+1,
// and the arenas the stages' scratch is carved from. An algorithm keeps
// it in its slab, so an engine re-running it allocates nothing.
type MISArena struct {
	lin    LinialPlan
	target int64
	nbr    []int64
	used   []bool
}

// Fill builds the plan from the views' global N and MaxDegree, and sets
// *stage(v) to the MIS stage of views[v] for every v, each with its own
// slice of the arena's scratch.
func (a *MISArena) Fill(views []runtime.NodeView, stage func(v int) *MIS) {
	arcs := 0
	for v := range views {
		arcs += views[v].Degree
	}
	a.nbr = runtime.Reslice(a.nbr, arcs)
	a.used = runtime.Reslice(a.used, arcs+len(views))
	if len(views) == 0 {
		return
	}
	n, maxDeg := views[0].N, views[0].MaxDegree
	space := int64(n) * int64(n)
	if space < 4 {
		space = 4
	}
	a.lin.Build(space, maxDeg)
	a.target = int64(maxDeg + 1)
	nbr, used := a.nbr, a.used
	for v := range views {
		deg := views[v].Degree
		*stage(v) = MIS{
			target: a.target,
			lin:    NewLinial(views[v].ID, &a.lin),
			nbr:    nbr[:deg:deg],
			used:   used[: deg+1 : deg+1],
		}
		nbr, used = nbr[deg:], used[deg+1:]
	}
}

// MIS is the deterministic MIS of the active subgraph via coloring:
// Linial's O(Δ²)-coloring from identifiers below max(n², 4), the
// Kuhn–Wattenhofer reduction to Δ+1 colors when Linial's palette is
// larger, and a sweep over the color classes ([BEK15] shape). Build the
// stages of a run with MISArena.Fill.
type MIS struct {
	phase  misPhase
	target int64
	lin    Linial
	kw     ReduceColorsKW
	sweep  MISSweep
	nbr    []int64 // the reduction's scratch
	used   []bool
}

// Round advances the stage by one round and reports whether it is done.
func (s *MIS) Round(ctx *runtime.Context, inbox []runtime.Message) bool {
	for {
		switch s.phase {
		case misLinial:
			if !s.lin.Round(ctx, inbox) {
				return false
			}
			color, palette := s.lin.Color(), s.lin.Palette()
			if palette > s.target {
				s.kw = NewReduceColorsKW(color, palette, s.target, s.nbr, s.used)
				s.phase = misReduce
			} else {
				s.sweep = NewMISSweep(int(palette), int(color))
				s.phase = misSweep
			}
		case misReduce:
			if !s.kw.Round(ctx, inbox) {
				return false
			}
			s.sweep = NewMISSweep(int(s.target), int(s.kw.Color()))
			s.phase = misSweep
		case misSweep:
			return s.sweep.Round(ctx, inbox)
		}
		inbox = nil // the next stage starts in this round: see the package doc
	}
}

// Joined reports MIS membership; final once the stage is done.
func (s *MIS) Joined() bool { return s.sweep.Joined() }

// RandGreedy is the randomized (Δ+1)-coloring of [Joh99]/[Lub93]: every
// uncolored node tries a uniformly random color from its free palette
// [0, deg(v)] and keeps it if no uncolored neighbor tried the same color.
// Each uncolored node succeeds with constant probability per phase, so the
// node-averaged complexity is O(1) ([BT19], Section 1.2 of the paper).
// Node outputs are int32 colors in [0, Δ+1).
type RandGreedy struct{}

// Name implements runtime.Algorithm.
func (RandGreedy) Name() string { return "coloring/randgreedy" }

// randGreedySlab holds a RandGreedy run's programs and their taken-color
// flags, deg(v)+1 per node.
type randGreedySlab struct {
	nodes []randGreedyNode
	taken []bool
}

// Nodes implements runtime.Algorithm.
func (RandGreedy) Nodes(views []runtime.NodeView, progs []runtime.Program, slab any) any {
	s, _ := slab.(*randGreedySlab)
	if s == nil {
		s = new(randGreedySlab)
	}
	colors := 0
	for v := range views {
		colors += views[v].Degree + 1
	}
	s.nodes = runtime.Reslice(s.nodes, len(views))
	s.taken = runtime.Reslice(s.taken, colors)
	taken := s.taken
	for v := range s.nodes {
		k := views[v].Degree + 1
		s.nodes[v].taken = taken[:k:k]
		taken = taken[k:]
		progs[v] = &s.nodes[v]
	}
	return s
}

type randGreedyNode struct {
	// taken[c] is set once a neighbor kept color c. Only the node's own
	// palette [0, deg] is tracked: a color above it never changes a choice.
	taken     []bool
	tentative int64
}

var _ runtime.Program = (*randGreedyNode)(nil)

func (n *randGreedyNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	// Kept colors may arrive in either step; ingest them first.
	conflict := false
	for _, m := range inbox {
		switch m.Kind {
		case kindFinal:
			if m.Val < int64(len(n.taken)) {
				n.taken[m.Val] = true
			}
		case kindTry:
			if m.Val == n.tentative {
				conflict = true
			}
		}
	}
	if ctx.Round()%2 == 0 { // try step
		n.tentative = n.freeColor(ctx.View().Rand)
		ctx.Broadcast(runtime.Message{Kind: kindTry, Val: n.tentative})
		return
	}
	// resolve step: keep the tentative color unless an uncolored neighbor
	// tried it too or a neighbor finalized it meanwhile.
	if !conflict && !n.taken[n.tentative] {
		ctx.CommitNode(int32(n.tentative))
		ctx.Broadcast(runtime.Message{Kind: kindFinal, Val: n.tentative})
		ctx.Halt()
	}
}

// freeColor samples uniformly from [0, deg] minus the taken set: it draws
// k among the free colors and returns the k-th.
func (n *randGreedyNode) freeColor(rng *rand.Rand) int64 {
	free := 0
	for _, t := range n.taken {
		if !t {
			free++
		}
	}
	k := rng.IntN(free)
	for c, t := range n.taken {
		if !t {
			if k == 0 {
				return int64(c)
			}
			k--
		}
	}
	panic("coloring: free color not found")
}
