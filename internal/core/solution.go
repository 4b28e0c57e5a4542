package core

import (
	"fmt"
	"slices"
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

// Solution is the outcome of a DisC computation: the selected objects
// in pick order and what the run cost. It holds nothing per object;
// the coverage a zoom needs is derived from IDs (see coveredWithin).
type Solution struct {
	// Algorithm is the name of the heuristic that produced the solution.
	Algorithm string
	// Radius is the r the solution was computed for.
	Radius float64
	// IDs lists the selected (black) objects in selection order.
	IDs []int
	// Accesses is the engine cost consumed computing this solution
	// (M-tree node accesses for the tree engine).
	Accesses int64
}

// coloring is a run's working state: every object's colour, the picks
// so far, in order, and the run's engine state. It lives only as long
// as the run; solution copies the picks out.
type coloring struct {
	colors []Color
	ids    []int
	run    Run
}

func newColoring(n int) *coloring { return &coloring{colors: make([]Color, n)} }

// selectBlack marks pi as a member of the diverse subset.
func (c *coloring) selectBlack(pi int) {
	c.colors[pi] = Black
	c.ids = append(c.ids, pi)
	c.run.cover(pi)
}

// grey marks id as covered by a selected object.
func (c *coloring) grey(id int) {
	c.colors[id] = Grey
	c.run.cover(id)
}

// isWhite reports whether id is still uncovered.
func (c *coloring) isWhite(id int) bool { return c.colors[id] == White }

// solution returns the run's answer, charged what the run's queries
// cost. Results outlive the run (the server keeps them), so the ids are
// copied out of the append-grown buffer at their exact size.
func (c *coloring) solution(algorithm string, r float64) *Solution {
	return &Solution{
		Algorithm: algorithm,
		Radius:    r,
		IDs:       append(make([]int, 0, len(c.ids)), c.ids...),
		Accesses:  c.run.accesses,
	}
}

// Size returns the number of selected objects.
func (s *Solution) Size() int { return len(s.IDs) }

// Contains reports whether object id was selected.
func (s *Solution) Contains(id int) bool { return slices.Contains(s.IDs, id) }

// SortedIDs returns the selected objects in ascending id order (a copy).
func (s *Solution) SortedIDs() []int {
	ids := append([]int(nil), s.IDs...)
	sort.Ints(ids)
	return ids
}

// coveredWithin reports, per object, whether it lies within r of one of
// ids (the ids themselves included): one range query per id, in order.
// It is the paper's post-processing pass (Section 5.2) cut to what the
// zooming rule reads — whether the closest black is within the new
// radius — so the zooms call it at their new radius. Its queries are
// charged to a run of its own, which no result reports.
func coveredWithin(e Engine, ids []int, r float64) []bool {
	covered := make([]bool, e.Size())
	var run Run
	var buf []object.Neighbor
	for _, b := range ids {
		covered[b] = true
		buf = e.NeighborsAppend(buf[:0], b, r, &run)
		for _, nb := range buf {
			covered[nb.ID] = true
		}
	}
	return covered
}

// checkIDs reports an id list that names an object twice or one outside
// [0, n).
func checkIDs(n int, ids []int) error {
	seen := make([]bool, n)
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("core: selected id %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return fmt.Errorf("core: object %d selected twice", id)
		}
		seen[id] = true
	}
	return nil
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
