package core

import (
	"math/rand/v2"
	"testing"
)

func TestBucketQueueOrdering(t *testing.T) {
	var q bucketQueue
	counts := []int{0: 0, 1: 5, 2: 9, 3: 9, 4: 1}
	// Descending pushes leave every shared bucket unsorted.
	for id := len(counts) - 1; id >= 0; id-- {
		q.push(int32(id), counts[id])
	}
	q.start()
	// Highest key first; ties by lowest id; key 0 last.
	live := func(int) bool { return true }
	for _, want := range []int{2, 3, 1, 4, 0} {
		if id, ok := popLive(&q, counts, live); !ok || id != want {
			t.Fatalf("pop got (%d,%v), want %d", id, ok, want)
		}
	}
	if _, ok := popLive(&q, counts, live); ok {
		t.Fatal("pop from exhausted queue succeeded")
	}
}

// TestBucketQueueStaleEntries: decrements touch only the count array;
// a stale entry re-enters at its current count when popped, and an
// entry whose object is no longer live is dropped.
func TestBucketQueueStaleEntries(t *testing.T) {
	var q bucketQueue
	counts := []int{0: 10, 1: 8, 2: 7}
	alive := []bool{true, true, true}
	for id, c := range counts {
		q.push(int32(id), c)
	}
	q.start()
	live := func(id int) bool { return alive[id] }
	// Object 0's count drops twice, object 2 leaves; nothing is pushed.
	counts[0] = 6
	counts[0] = 3
	alive[2] = false
	id, ok := popLive(&q, counts, live)
	if !ok || id != 1 {
		t.Fatalf("expected 1 (key 8) first, got (%d,%v)", id, ok)
	}
	alive[1] = false
	id, ok = popLive(&q, counts, live)
	if !ok || id != 0 {
		t.Fatalf("expected 0 (key 3), got (%d,%v)", id, ok)
	}
	alive[0] = false
	if _, ok := popLive(&q, counts, live); ok {
		t.Fatal("dead and stale entries should all be discarded")
	}
}

func TestBucketQueueEmptyFill(t *testing.T) {
	var q bucketQueue
	q.start()
	if id, ok := popLive(&q, []int(nil), func(int) bool { return true }); ok {
		t.Fatalf("empty queue popped %d", id)
	}
	// A queue drained empty takes a fresh fill.
	q.push(3, 0)
	q.start()
	if id, ok := popLive(&q, []int{0, 0, 0, 0}, func(int) bool { return true }); !ok || id != 3 {
		t.Fatalf("refill popped (%d,%v), want 3", id, ok)
	}
}

// TestBucketQueueMatchesLinearScan: under random decrements, ties and
// removals, every pop must return the live object with the largest
// current count and, among those, the smallest id — compared against a
// linear scan. The second round refills the queue the first drained.
func TestBucketQueueMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	n := 200
	var q bucketQueue
	for round := 0; round < 2; round++ {
		counts := make([]int, n)
		alive := make([]bool, n)
		for i := range counts {
			counts[i] = rng.IntN(20) // small range: many ties, some zeros
			alive[i] = true
			q.push(int32(i), counts[i])
		}
		q.start()
		live := func(id int) bool { return alive[id] }
		for step := 0; ; step++ {
			// Randomly decrement a few counts and retire an object.
			for j := 0; j < 5; j++ {
				if id := rng.IntN(n); alive[id] && counts[id] > 0 {
					counts[id]--
				}
			}
			if id := rng.IntN(n); step%3 == 0 {
				alive[id] = false
			}
			best := -1
			for id := 0; id < n; id++ {
				if alive[id] && (best == -1 || counts[id] > counts[best]) {
					best = id
				}
			}
			got, ok := popLive(&q, counts, live)
			if best == -1 {
				if ok {
					t.Fatalf("round %d step %d: popped %d with none alive", round, step, got)
				}
				break
			}
			if !ok || got != best {
				t.Fatalf("round %d step %d: popped (%d,%v), linear scan picks %d (count %d)", round, step, got, ok, best, counts[best])
			}
			alive[got] = false
		}
	}
}
