//go:build !race

package server

import (
	"testing"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/manager"
)

// TestResultCacheHitZeroAlloc pins the result cache's hit path — the
// lookup, the LRU touch and the outcome counter — at zero allocations,
// like the telemetry handles it feeds (the race detector may allocate,
// hence the build tag).
func TestResultCacheHitZeroAlloc(t *testing.T) {
	div, err := disc.New([]disc.Point{{0, 0}, {1, 1}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := div.Select(0.5)
	if err != nil {
		t.Fatal(err)
	}
	st := &manager.Static{}
	c := newResultCache(resultCacheIDs)
	ids := []string{resultKey{dataset: "demo", radius: 0.5}.String(), resultKey{dataset: "other", radius: 0.5}.String()}
	for _, id := range ids {
		c.put(id, st, res)
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		i++ // alternate, so each hit moves its entry to the front
		if c.get(ids[i%2], st) == nil {
			t.Fatal("miss")
		}
		metLookupHit.Inc()
	}); avg != 0 {
		t.Fatalf("a result cache hit allocates %.1f per op, want 0", avg)
	}
	c.clear()
}
