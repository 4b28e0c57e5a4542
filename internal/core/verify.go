package core

import (
	"fmt"

	"github.com/discdiversity/disc/internal/object"
)

// CheckDisC verifies both conditions of Definition 1 for a candidate
// subset by direct distance computation (no index involved): every object
// must be within r of a selected object (coverage) and no two selected
// objects may be within r of each other (dissimilarity). It returns nil
// when the subset is r-DisC diverse.
func CheckDisC(pts []object.Point, m object.Metric, ids []int, r float64) error {
	if err := CheckCoverage(pts, m, ids, r); err != nil {
		return err
	}
	return CheckDissimilarity(pts, m, ids, r)
}

// CheckCoverage verifies only the coverage condition (r-C diversity).
func CheckCoverage(pts []object.Point, m object.Metric, ids []int, r float64) error {
	if len(pts) > 0 && len(ids) == 0 {
		return fmt.Errorf("core: empty subset cannot cover %d objects", len(pts))
	}
	sel := make([]object.Point, len(ids))
	for i, id := range ids {
		if id < 0 || id >= len(pts) {
			return fmt.Errorf("core: selected id %d out of range [0,%d)", id, len(pts))
		}
		sel[i] = pts[id]
	}
	for i, p := range pts {
		covered := false
		for _, s := range sel {
			if m.Dist(p, s) <= r {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("core: object %d is not covered at radius %g", i, r)
		}
	}
	return nil
}

// CheckDissimilarity verifies only the dissimilarity (independence)
// condition.
func CheckDissimilarity(pts []object.Point, m object.Metric, ids []int, r float64) error {
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("core: object %d selected twice", id)
		}
		seen[id] = true
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if d := m.Dist(pts[ids[i]], pts[ids[j]]); d <= r {
				return fmt.Errorf("core: selected objects %d and %d at distance %g ≤ %g", ids[i], ids[j], d, r)
			}
		}
	}
	return nil
}

// VerifySolution checks a solution against its engine: its ids name
// distinct objects in range (CheckDisC checks both), and they form an
// r-DisC diverse subset.
func VerifySolution(e Engine, s *Solution) error {
	return CheckDisC(enginePoints(e), e.Metric(), s.IDs, s.Radius)
}

// VerifyCoverageOnly is VerifySolution for r-C subsets (Greedy-C, Fast-C),
// which do not promise independence; their ids must still be distinct
// and in range.
func VerifyCoverageOnly(e Engine, s *Solution) error {
	if err := checkIDs(e.Size(), s.IDs); err != nil {
		return err
	}
	return CheckCoverage(enginePoints(e), e.Metric(), s.IDs, s.Radius)
}

func enginePoints(e Engine) []object.Point {
	pts := make([]object.Point, e.Size())
	for i := range pts {
		pts[i] = e.Point(i)
	}
	return pts
}
