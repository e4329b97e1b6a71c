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

// LinialSchedule returns the palette sizes of Linial's coloring for nodes
// with identifiers below space in graphs of maximum degree maxDeg: a pure
// function so all nodes agree. schedule[0] == space and successive entries
// are q² for the chosen primes q; the last entry is the final palette size,
// reached after len(schedule)-1 rounds (O(log* space) many).
func LinialSchedule(space int64, maxDeg int) []int64 {
	if maxDeg < 1 {
		maxDeg = 1
	}
	sched := []int64{space}
	cur := space
	for {
		q, ok := linialPrime(cur, maxDeg)
		if !ok || q*q >= cur {
			return sched
		}
		cur = q * q
		sched = append(sched, cur)
	}
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
// unique identifiers below space, after len(LinialSchedule)-1 exchanges
// every node holds a color in [0, Palette()) proper on the active
// subgraph, with Palette() = O(maxDeg²). Silent ports are ignored.
type Linial struct {
	maxDeg int
	sched  []int64
	t      int // index into sched of the palette being reduced; -1 before the first call
	color  int64
	nbr    []int64 // scratch: neighbor colors of the current exchange
}

// NewLinial returns the Linial stage of the node with identifier id.
func NewLinial(id, space int64, maxDeg int) Linial {
	return Linial{maxDeg: maxDeg, sched: LinialSchedule(space, maxDeg), t: -1, color: id}
}

// Round advances the stage by one round and reports whether it is done.
func (s *Linial) Round(ctx *runtime.Context, inbox []runtime.Message) bool {
	if s.t >= 0 {
		K := s.sched[s.t]
		q, _ := linialPrime(K, s.maxDeg)
		s.nbr = s.nbr[:0]
		for _, m := range inbox {
			if m.Kind == kindLinial {
				s.nbr = append(s.nbr, m.Val)
			}
		}
		s.color = linialStep(s.color, s.nbr, q, polyDegree(K, q))
	}
	s.t++
	if s.t+1 >= len(s.sched) {
		return true
	}
	ctx.Broadcast(runtime.Message{Kind: kindLinial, Val: s.color})
	return false
}

// Color returns the current color.
func (s *Linial) Color() int64 { return s.color }

// Palette returns the final palette size.
func (s *Linial) Palette() int64 { return s.sched[len(s.sched)-1] }

// linialStep maps color (viewed as a degree-<=d polynomial over GF(q)) to
// (x, p(x)) for an evaluation point x where it differs from all neighbor
// polynomials. Such x exists because the at most maxDeg neighbor
// polynomials each agree with ours on at most d points and maxDeg*d < q.
func linialStep(color int64, nbr []int64, q, d int64) int64 {
	self := polyCoeffs(color, q, d)
	others := make([][]int64, len(nbr))
	for i, c := range nbr {
		others[i] = polyCoeffs(c, q, d)
	}
	for x := int64(0); x < q; x++ {
		px := polyEval(self, x, q)
		ok := true
		for _, o := range others {
			if polyEval(o, x, q) == px {
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

func polyCoeffs(c, q, d int64) []int64 {
	coeffs := make([]int64, d+1)
	for i := range coeffs {
		coeffs[i] = c % q
		c /= q
	}
	return coeffs
}

func polyEval(coeffs []int64, x, q int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
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
	used             []bool  // scratch for smallestFreeIn, len target
}

// NewReduceColorsKW returns the reduction stage of a node holding color in
// a proper q-coloring.
func NewReduceColorsKW(color, q, target int64) ReduceColorsKW {
	return ReduceColorsKW{color: color, target: target, K: q}
}

// Round advances the stage by one round and reports whether it is done.
func (s *ReduceColorsKW) Round(ctx *runtime.Context, inbox []runtime.Message) bool {
	if s.phase == kwStart {
		if s.K <= s.target {
			return true
		}
		s.nbr = make([]int64, ctx.View().Degree)
		for p := range s.nbr {
			s.nbr[p] = -1
		}
		s.used = make([]bool, s.target)
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
// exceeds the active degree.
func (s *ReduceColorsKW) smallestFreeIn(lo, hi int64) int64 {
	clear(s.used)
	for _, c := range s.nbr {
		if c >= lo && c < hi {
			s.used[c-lo] = true
		}
	}
	for c := lo; c < hi; c++ {
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

// MIS is the deterministic MIS of the active subgraph via coloring:
// Linial's O(Δ²)-coloring from identifiers below max(n², 4), the
// Kuhn–Wattenhofer reduction to Δ+1 colors when Linial's palette is
// larger, and a sweep over the color classes ([BEK15] shape).
type MIS struct {
	phase  misPhase
	target int64
	lin    Linial
	kw     ReduceColorsKW
	sweep  MISSweep
}

// NewMIS returns the MIS stage of the node with identifier id in an n-node
// graph of maximum degree maxDeg.
func NewMIS(id int64, n, maxDeg int) MIS {
	space := int64(n) * int64(n)
	if space < 4 {
		space = 4
	}
	return MIS{target: int64(maxDeg + 1), lin: NewLinial(id, space, maxDeg)}
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
				s.kw = NewReduceColorsKW(color, palette, s.target)
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
