package core

import "slices"

// bucketQueue is L′, the paper's priority list of white-neighbourhood
// sizes, for every greedy run in this package: Greedy-DisC over an
// engine or an adjacency, the live run, Greedy-C and Fast-C, the
// greedy zooms (global and local) and greedy multi-radius DisC. It
// exploits two properties of those runs: keys (neighbourhood counts)
// are small non-negative integers that only ever decrease, and the pop
// order is (key desc, id asc) with deferred invalidation — a decrement
// writes only the caller's count array, and an entry popped with a
// stale key re-enters at its current, strictly lower key (popLive). An
// entry popped with a stale key still dominates every live key below
// it, so re-entering it before acting preserves the exact (key desc,
// id asc) selection order with one push per candidate plus one per
// stale pop. Under that protocol a bucket never receives an element at
// or above the bucket currently draining, so every bucket's membership
// is complete before its first pop: sorting it once at drain start
// gives the global (key desc, id asc) order exactly, with O(1) pushes.
//
// The zero value is ready to use; a drained queue is empty and can be
// refilled, retaining its bucket storage.
type bucketQueue struct {
	buckets [][]int32
	// unsorted marks buckets whose appends broke ascending id order;
	// the common case — the initial fill pushes members ascending —
	// needs no sort at all.
	unsorted []bool
	// cur is the bucket currently draining (-1 before start/after
	// exhaustion), head the drain position within it.
	cur    int
	head   int
	maxKey int
}

// push adds id at key. Before start, any key is accepted; during a
// drain the protocol guarantees key < cur (stale re-entries only).
func (q *bucketQueue) push(id int32, key int) {
	for key >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
		q.unsorted = append(q.unsorted, false)
	}
	b := q.buckets[key]
	if n := len(b); n > 0 && b[n-1] > id {
		q.unsorted[key] = true
	}
	q.buckets[key] = append(b, id)
	if key > q.maxKey {
		q.maxKey = key
	}
}

// sortBucket orders bucket k for draining, if its appends require it.
func (q *bucketQueue) sortBucket(k int) {
	if k >= 0 && k < len(q.buckets) && q.unsorted[k] {
		slices.Sort(q.buckets[k])
		q.unsorted[k] = false
	}
}

// start begins draining after the initial fill.
func (q *bucketQueue) start() {
	q.cur = q.maxKey
	q.head = 0
	q.sortBucket(q.cur)
}

// pop returns the (max key, min id) entry, or ok=false when the queue
// is exhausted (which also resets it for the next fill). Callers go
// through popLive, which keeps the deferred-invalidation protocol.
func (q *bucketQueue) pop() (id int32, key int, ok bool) {
	for q.cur >= 0 {
		if q.cur < len(q.buckets) {
			b := q.buckets[q.cur]
			if q.head < len(b) {
				id = b[q.head]
				q.head++
				return id, q.cur, true
			}
			q.buckets[q.cur] = b[:0]
		}
		q.cur--
		q.head = 0
		q.sortBucket(q.cur)
	}
	q.maxKey = 0
	q.cur = -1
	return 0, 0, false
}

// popLive returns the live candidate with the largest current count,
// ties to the smaller id: a popped entry whose object live rejects is
// dropped, and one whose key no longer equals counts[id] re-enters at
// its current count. live must stay false once it turns false, and
// counts may only decrease. ok is false when no candidate is left.
func popLive[C int | int32](q *bucketQueue, counts []C, live func(id int) bool) (id int, ok bool) {
	for {
		id32, key, ok := q.pop()
		if !ok {
			return 0, false
		}
		id = int(id32)
		if !live(id) {
			continue
		}
		if c := int(counts[id]); c != key {
			q.push(id32, c)
			continue
		}
		return id, true
	}
}
