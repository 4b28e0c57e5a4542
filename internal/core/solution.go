package core

import (
	"math"
	"sort"

	"github.com/discdiversity/disc/internal/object"
)

// Color is the tri-state coloring the paper's algorithms use: white
// objects are uncovered, grey objects are covered by a selected (black)
// object, black objects form the diverse subset. Red appears only during
// zoom-out's first pass (previously black objects pending re-examination).
type Color uint8

// Object colors.
const (
	White Color = iota
	Grey
	Black
	Red
)

// String implements fmt.Stringer.
func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Grey:
		return "grey"
	case Black:
		return "black"
	case Red:
		return "red"
	default:
		return "color?"
	}
}

// Solution is the outcome of a DisC computation: the selected objects, the
// final coloring and the bookkeeping needed for incremental zooming.
type Solution struct {
	// Algorithm is the name of the heuristic that produced the solution.
	Algorithm string
	// Radius is the r the solution was computed for.
	Radius float64
	// IDs lists the selected (black) objects in selection order.
	IDs []int
	// Colors holds the final color of every object.
	Colors []Color
	// DistBlack[id] is the distance from id to its closest black
	// neighbour within Radius (0 for black objects, +Inf if unknown).
	// It powers the paper's zooming rule. See DistBlackExact.
	DistBlack []float64
	// DistBlackExact reports whether DistBlack holds exact values.
	// Pruned runs skip already-grey objects during range queries, so
	// their DistBlack entries are upper bounds until
	// RecomputeDistBlack is called (the paper's post-processing step).
	DistBlackExact bool
	// Accesses is the engine cost consumed computing this solution
	// (M-tree node accesses for the tree engine).
	Accesses int64
}

func newSolution(n int, r float64, algorithm string) *Solution {
	s := &Solution{
		Algorithm: algorithm,
		Radius:    r,
		Colors:    make([]Color, n),
		DistBlack: make([]float64, n),
	}
	for i := range s.DistBlack {
		s.DistBlack[i] = math.Inf(1)
	}
	return s
}

// selectBlack marks pi as a member of the diverse subset.
func (s *Solution) selectBlack(pi int) {
	s.Colors[pi] = Black
	s.DistBlack[pi] = 0
	s.IDs = append(s.IDs, pi)
}

// isWhite reports whether id is still uncovered.
func (s *Solution) isWhite(id int) bool { return s.Colors[id] == White }

// Size returns the number of selected objects.
func (s *Solution) Size() int { return len(s.IDs) }

// Contains reports whether object id was selected.
func (s *Solution) Contains(id int) bool {
	return id >= 0 && id < len(s.Colors) && s.Colors[id] == Black
}

// SortedIDs returns the selected objects in ascending id order (a copy).
func (s *Solution) SortedIDs() []int {
	ids := append([]int(nil), s.IDs...)
	sort.Ints(ids)
	return ids
}

// Clone returns a deep copy of the solution.
func (s *Solution) Clone() *Solution {
	c := *s
	c.IDs = append([]int(nil), s.IDs...)
	c.Colors = append([]Color(nil), s.Colors...)
	c.DistBlack = append([]float64(nil), s.DistBlack...)
	return &c
}

// RecomputeDistBlack restores exact closest-black-neighbour distances by
// running one unpruned range query per selected object. This is the
// post-processing step Section 5.2 requires after pruned runs, before the
// zooming rule can be applied. The engine accesses it performs are left
// on the engine's counter; they are not added to s.Accesses.
func RecomputeDistBlack(e Engine, s *Solution) {
	for i := range s.DistBlack {
		s.DistBlack[i] = math.Inf(1)
	}
	var buf []object.Neighbor
	for _, b := range s.IDs {
		s.DistBlack[b] = 0
		buf = e.NeighborsAppend(buf[:0], b, s.Radius)
		for _, nb := range buf {
			if nb.Dist < s.DistBlack[nb.ID] {
				s.DistBlack[nb.ID] = nb.Dist
			}
		}
	}
	s.DistBlackExact = true
}

// Jaccard returns the Jaccard distance between the selected sets of two
// solutions: 1 - |A∩B| / |A∪B|. Two empty sets have distance 0.
func Jaccard(a, b *Solution) float64 {
	return JaccardIDs(a.IDs, b.IDs)
}

// JaccardIDs is Jaccard over raw id slices.
func JaccardIDs(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := make(map[int]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	inter := 0
	union := len(set)
	seen := make(map[int]struct{}, len(b))
	for _, x := range b {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		if _, ok := set[x]; ok {
			inter++
		} else {
			union++
		}
	}
	return 1 - float64(inter)/float64(union)
}
