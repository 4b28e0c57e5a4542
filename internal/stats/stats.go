// Package stats provides the measurement and reporting helpers used by
// the experiment harness: solution-quality metrics, set similarity and
// plain-text table/series rendering in the style of the paper's tables
// and figures.
package stats

import "github.com/discdiversity/disc/internal/object"

// Jaccard returns the Jaccard distance 1 - |A∩B|/|A∪B| between two id
// sets (0 for two empty sets), the dissimilarity measure of Figures 13
// and 16.
func Jaccard(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	sa := toSet(a)
	sb := toSet(b)
	inter := 0
	for v := range sa {
		if _, ok := sb[v]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return 1 - float64(inter)/float64(union)
}

func toSet(xs []int) map[int]struct{} {
	s := make(map[int]struct{}, len(xs))
	for _, x := range xs {
		s[x] = struct{}{}
	}
	return s
}

// CoverageFraction returns the fraction of objects lying within r of at
// least one selected object — 1.0 for any valid r-C subset, lower for
// models like MaxSum or k-medoids that ignore coverage.
func CoverageFraction(pts []object.Point, m object.Metric, ids []int, r float64) float64 {
	if len(pts) == 0 {
		return 1
	}
	covered := 0
	for _, p := range pts {
		for _, id := range ids {
			if m.Dist(p, pts[id]) <= r {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(pts))
}
