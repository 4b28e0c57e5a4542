package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/discdiversity/disc/internal/object"
)

// exact_test.go is the graph-theoretic reference of the paper (Section
// 2.2): the graph G_{P,r} whose vertices are objects and whose edges
// connect objects within distance r, checkers for independence and
// domination, and exponential exact solvers that the bound tests
// (bounds_test.go) use to validate the heuristics' approximation
// guarantees (Theorems 1 and 2, Lemma 7).

// refGraph is an undirected graph in adjacency-list form over vertices
// 0..n-1.
type refGraph struct {
	Adj [][]int
}

// N returns the number of vertices.
func (g *refGraph) N() int { return len(g.Adj) }

// buildRefGraph constructs G_{P,r}: vertex per object, edge iff dist ≤ r.
// O(n^2) distance computations; intended for analysis and tests.
func buildRefGraph(pts []object.Point, m object.Metric, r float64) *refGraph {
	n := len(pts)
	g := &refGraph{Adj: make([][]int, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.Dist(pts[i], pts[j]) <= r {
				g.Adj[i] = append(g.Adj[i], j)
				g.Adj[j] = append(g.Adj[j], i)
			}
		}
	}
	return g
}

// MaxDegree returns Δ, the maximum degree (Theorem 2's bound parameter).
func (g *refGraph) MaxDegree() int {
	max := 0
	for v := range g.Adj {
		if d := len(g.Adj[v]); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether (u,v) is an edge.
func (g *refGraph) HasEdge(u, v int) bool {
	for _, w := range g.Adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// IsIndependent reports whether no two vertices of set share an edge.
func (g *refGraph) IsIndependent(set []int) bool {
	in := g.member(set)
	for _, v := range set {
		for _, w := range g.Adj[v] {
			if in[w] {
				return false
			}
		}
	}
	return true
}

// IsDominating reports whether every vertex is in set or adjacent to a
// member of set.
func (g *refGraph) IsDominating(set []int) bool {
	in := g.member(set)
	for v := range g.Adj {
		if in[v] {
			continue
		}
		dominated := false
		for _, w := range g.Adj[v] {
			if in[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// IsMaximalIndependent reports whether set is independent and no vertex
// can be added without breaking independence. By Lemma 1 this is
// equivalent to IsIndependent && IsDominating.
func (g *refGraph) IsMaximalIndependent(set []int) bool {
	return g.IsIndependent(set) && g.IsDominating(set)
}

func (g *refGraph) member(set []int) []bool {
	in := make([]bool, len(g.Adj))
	for _, v := range set {
		in[v] = true
	}
	return in
}

// Validate checks adjacency symmetry and bounds; used by tests.
func (g *refGraph) Validate() error {
	for v, ns := range g.Adj {
		for _, w := range ns {
			if w < 0 || w >= len(g.Adj) {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, w)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge %d-%d", v, w)
			}
		}
	}
	return nil
}

// maxExactVertices bounds the instance size the exponential exact solvers
// accept.
const maxExactVertices = 26

// MinIndependentDominatingSet computes a minimum independent dominating
// set — the paper's optimum S* — by exhaustive search over vertex subsets
// in increasing cardinality, using bitmask domination closures. It is
// exponential and restricted to at most maxExactVertices vertices; tests
// use it to validate Theorem 1 (|S| ≤ B|S*|) and Theorem 2 (Greedy-C ≤
// lnΔ · |S*|).
func (g *refGraph) MinIndependentDominatingSet() []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	if n > maxExactVertices {
		panic("graph: instance too large for exact MIDS")
	}
	closed := g.closedMasks()
	full := uint32(1)<<uint(n) - 1

	var best []int
	var cur []int
	bestSize := n + 1

	// Branch on the lowest-indexed undominated vertex: any dominating
	// set must contain it or one of its neighbours. Independence is
	// enforced by tracking forbidden vertices (neighbours of chosen).
	var rec func(dominated uint32, forbidden uint32)
	rec = func(dominated, forbidden uint32) {
		if len(cur) >= bestSize {
			return
		}
		if dominated == full {
			bestSize = len(cur)
			best = append(best[:0], cur...)
			return
		}
		v := bits.TrailingZeros32(^dominated)
		// Candidates: v and its neighbours, skipping forbidden ones.
		cands := []int{v}
		cands = append(cands, g.Adj[v]...)
		for _, c := range cands {
			bit := uint32(1) << uint(c)
			if forbidden&bit != 0 {
				continue
			}
			// Choosing c forbids c's neighbours (independence).
			var nf uint32
			for _, w := range g.Adj[c] {
				nf |= uint32(1) << uint(w)
			}
			cur = append(cur, c)
			rec(dominated|closed[c], forbidden|bit|nf)
			cur = cur[:len(cur)-1]
		}
		// Note: v itself must be dominated eventually; every dominating
		// set contains a member of N+[v], so the loop above is complete.
	}
	rec(0, 0)
	sort.Ints(best)
	return best
}

func (g *refGraph) closedMasks() []uint32 {
	masks := make([]uint32, g.N())
	for v := range g.Adj {
		m := uint32(1) << uint(v)
		for _, w := range g.Adj[v] {
			m |= uint32(1) << uint(w)
		}
		masks[v] = m
	}
	return masks
}

// MaxIndependentNeighbors returns B, the maximum over vertices of the
// size of a largest independent subset of the vertex's neighbourhood
// (the bound parameter of Theorem 1). Exponential in the neighbourhood
// size; intended for small test instances.
func (g *refGraph) MaxIndependentNeighbors() int {
	best := 0
	for v := range g.Adj {
		if b := g.maxIndependentSubset(g.Adj[v]); b > best {
			best = b
		}
	}
	return best
}

func (g *refGraph) maxIndependentSubset(verts []int) int {
	if len(verts) > maxExactVertices {
		panic("graph: neighbourhood too large for exact independent set")
	}
	best := 0
	n := len(verts)
	for mask := uint32(0); mask < uint32(1)<<uint(n); mask++ {
		sz := bits.OnesCount32(mask)
		if sz <= best {
			continue
		}
		ok := true
	pairs:
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mask&(1<<uint(j)) == 0 {
					continue
				}
				if g.HasEdge(verts[i], verts[j]) {
					ok = false
					break pairs
				}
			}
		}
		if ok {
			best = sz
		}
	}
	return best
}

// optimalMaxMin returns the k-subset of pts maximising the minimum
// pairwise distance (the exact MaxMin optimum of Lemma 7) together with
// that distance. Exhaustive over k-subsets; restricted to small inputs.
func optimalMaxMin(pts []object.Point, m object.Metric, k int) ([]int, float64) {
	n := len(pts)
	if k <= 0 || k > n {
		return nil, 0
	}
	if k == 1 {
		return []int{0}, math.Inf(1)
	}
	if n > maxExactVertices {
		panic("graph: instance too large for exact MaxMin")
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = m.Dist(pts[i], pts[j])
		}
	}
	var best []int
	bestMin := -1.0
	idx := make([]int, k)
	var rec func(start, depth int, curMin float64)
	rec = func(start, depth int, curMin float64) {
		if depth == k {
			if curMin > bestMin {
				bestMin = curMin
				best = append(best[:0], idx...)
			}
			return
		}
		for v := start; v <= n-(k-depth); v++ {
			nm := curMin
			ok := true
			for i := 0; i < depth; i++ {
				d := dist[idx[i]][v]
				if d <= bestMin {
					ok = false
					break
				}
				if d < nm {
					nm = d
				}
			}
			if !ok {
				continue
			}
			idx[depth] = v
			rec(v+1, depth+1, nm)
		}
	}
	rec(0, 0, math.Inf(1))
	sort.Ints(best)
	return best, bestMin
}
