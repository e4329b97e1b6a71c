// Binary CSR serialization: a Graph round-trips through a versioned flat
// image of its exact internal state — offsets, arc arrays, canonical edge
// endpoints — so a decoded graph is indistinguishable from the generator's
// output, ports and edge ids included. The graph store persists these
// images so warm runs never re-run a generator.
package graph

import (
	"encoding/binary"
	"fmt"
	"math"
)

// csrMagic and csrVersion head every serialized graph. The version covers
// the field layout below; decoding any other version fails loudly so a
// store never silently misreads an artifact written by a different build.
const (
	csrMagic   = "avgcsr"
	csrVersion = 1
)

// headerSize is magic + version byte + three uint64 counts (n, m, maxDeg).
const headerSize = len(csrMagic) + 1 + 3*8

// MarshalBinary encodes the graph as a versioned flat CSR image:
//
//	"avgcsr" <version:u8> <n:u64> <m:u64> <maxDeg:u64>
//	offsets[n+1] neigh[2m] edgeID[2m] twin[2m] eu[m] ev[m]   (little-endian int32)
//
// The encoding is exact — UnmarshalBinary reconstructs a deep-equal Graph —
// and never fails for graphs built through Builder.
func (g *Graph) MarshalBinary() ([]byte, error) {
	n, m := g.n, g.M()
	out := make([]byte, 0, headerSize+4*((n+1)+3*(2*m)+2*m))
	out = append(out, csrMagic...)
	out = append(out, csrVersion)
	var u [8]byte
	for _, x := range [3]int{n, m, g.maxDeg} {
		binary.LittleEndian.PutUint64(u[:], uint64(x))
		out = append(out, u[:]...)
	}
	for _, arr := range [][]int32{g.offsets, g.neigh, g.edgeID, g.twin, g.eu, g.ev} {
		for _, x := range arr {
			binary.LittleEndian.PutUint32(u[:4], uint32(x))
			out = append(out, u[:4]...)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a MarshalBinary image into g, replacing its
// contents. The image is fully validated — array lengths, offset
// monotonicity, arc/edge bounds, twin-arc involution, every edge id carried
// by exactly one twin pair of arcs, per-arc endpoint consistency with the
// edge table, and the cached maximum degree — so a successfully decoded
// graph is a verified Graph, not trusted bytes. (Disk checksums catch
// corruption; this catches version or logic skew.) The round engine indexes
// the twin array directly, so these checks are what it relies on.
func (g *Graph) UnmarshalBinary(data []byte) error {
	if len(data) < headerSize || string(data[:len(csrMagic)]) != csrMagic {
		return fmt.Errorf("graph: decode: not a CSR image")
	}
	if v := data[len(csrMagic)]; v != csrVersion {
		return fmt.Errorf("graph: decode: CSR version %d, want %d", v, csrVersion)
	}
	p := len(csrMagic) + 1
	var counts [3]uint64
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(data[p:])
		p += 8
	}
	n64, m64, maxDeg64 := counts[0], counts[1], counts[2]
	// Arc indices are int32, so 2m (and hence n's offsets) must fit; the
	// registry's edge budget keeps real graphs far below this.
	if n64 > math.MaxInt32 || m64 > math.MaxInt32/2 || maxDeg64 > 2*m64 {
		return fmt.Errorf("graph: decode: implausible sizes n=%d m=%d maxDeg=%d", n64, m64, maxDeg64)
	}
	n, m, maxDeg := int(n64), int(m64), int(maxDeg64)
	want := headerSize + 4*((n+1)+3*(2*m)+2*m)
	if len(data) != want {
		return fmt.Errorf("graph: decode: %d bytes, want %d for n=%d m=%d", len(data), want, n, m)
	}
	read := func(k int) []int32 {
		arr := make([]int32, k)
		for i := range arr {
			arr[i] = int32(binary.LittleEndian.Uint32(data[p:]))
			p += 4
		}
		return arr
	}
	offsets := read(n + 1)
	neigh := read(2 * m)
	edgeID := read(2 * m)
	twin := read(2 * m)
	eu := read(m)
	ev := read(m)
	if offsets[0] != 0 || offsets[n] != int32(2*m) {
		return fmt.Errorf("graph: decode: offsets span [%d, %d], want [0, %d]", offsets[0], offsets[n], 2*m)
	}
	// Monotone offsets between 0 and 2m keep every node's arc range, the
	// twin's included, inside the arc arrays.
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return fmt.Errorf("graph: decode: offsets not monotone at node %d", v)
		}
	}
	seenDeg := 0
	arcsOf := make([]int32, m) // arcs carrying each edge id
	for v := 0; v < n; v++ {
		if d := int(offsets[v+1] - offsets[v]); d > seenDeg {
			seenDeg = d
		}
		for a := offsets[v]; a < offsets[v+1]; a++ {
			w, e, t := neigh[a], edgeID[a], twin[a]
			if w < 0 || int(w) >= n || w == int32(v) {
				return fmt.Errorf("graph: decode: arc %d of node %d targets %d", a, v, w)
			}
			if e < 0 || int(e) >= m {
				return fmt.Errorf("graph: decode: arc %d carries edge id %d of %d", a, e, m)
			}
			if t < offsets[w] || t >= offsets[w+1] || twin[t] != a || neigh[t] != int32(v) || edgeID[t] != e {
				return fmt.Errorf("graph: decode: arc %d of node %d has inconsistent twin %d", a, v, t)
			}
			lo, hi := int32(v), w
			if lo > hi {
				lo, hi = hi, lo
			}
			if eu[e] != lo || ev[e] != hi {
				return fmt.Errorf("graph: decode: edge %d endpoints (%d,%d) disagree with arc {%d,%d}", e, eu[e], ev[e], lo, hi)
			}
			arcsOf[e]++
		}
	}
	// Every arc's twin carries the same edge id, so a count of exactly two
	// means the edge sits on one twin pair: no edge id is orphaned (its
	// endpoints unchecked) or shared by two physical edges.
	for e, k := range arcsOf {
		if k != 2 {
			return fmt.Errorf("graph: decode: edge %d carried by %d arcs, want 2", e, k)
		}
	}
	if seenDeg != maxDeg {
		return fmt.Errorf("graph: decode: cached max degree %d, computed %d", maxDeg, seenDeg)
	}
	g.n, g.offsets, g.neigh, g.edgeID, g.twin, g.eu, g.ev, g.maxDeg = n, offsets, neigh, edgeID, twin, eu, ev, maxDeg
	return nil
}
