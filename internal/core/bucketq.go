package core

import "slices"

// bucketQueue is L′, the paper's priority list of white-neighbourhood
// sizes, for every greedy run in this package: Greedy-DisC over an
// engine or an adjacency, the live run, Greedy-C and Fast-C, the
// greedy zooms (global and local, and the red keys of Greedy-Zoom-Out
// (a)'s first pass) and greedy multi-radius DisC. It
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
// is complete before its first pop: ordering it once at drain start
// gives the global (key desc, id asc) order exactly, with O(1) pushes.
//
// The protocol also queues an id at most once at a time, so the
// buckets are lists threaded through one id-indexed array: a push,
// re-entries included, writes two entries and never allocates. A
// fresh fill allocates the lists and the drain buffer once; a drained
// queue is empty and can be refilled, retaining them.
type bucketQueue struct {
	// heads[k] is the id pushed last at key k and next[id] the id
	// pushed at the same key before it; -1 ends a list.
	heads []int32
	next  []int32
	// bucket holds key cur's members in ascending id order (cur is -1
	// once the queue is exhausted), head the drain position.
	bucket []int32
	cur    int
	head   int
	maxKey int
}

// fill queues every id below len(keys) that include accepts (nil
// accepts all) at keys[id] and starts the drain.
func fill[C int | int32](q *bucketQueue, keys []C, include func(id int) bool) {
	if len(keys) > 0 {
		q.heads = extend(q.heads, int(slices.Max(keys))+1)
		q.next = extend(q.next, len(keys))
		q.bucket = slices.Grow(q.bucket[:0], len(keys))
	}
	for id, k := range keys {
		if include == nil || include(id) {
			q.push(int32(id), int(k))
		}
	}
	q.start()
}

// extend returns s with length at least n, new entries -1.
func extend(s []int32, n int) []int32 {
	m := len(s)
	if m >= n {
		return s
	}
	s = slices.Grow(s, n-m)[:n]
	for i := m; i < n; i++ {
		s[i] = -1
	}
	return s
}

// push adds id at key. Before start, any key is accepted; during a
// drain the protocol guarantees key < cur (stale re-entries only). id
// must not be queued already.
func (q *bucketQueue) push(id int32, key int) {
	q.heads = extend(q.heads, key+1)
	q.next = extend(q.next, int(id)+1)
	q.next[id] = q.heads[key]
	q.heads[key] = id
	q.maxKey = max(q.maxKey, key)
}

// load moves bucket k's list into q.bucket in ascending id order. A
// list holds its ids in reverse push order, so a fill's ascending
// pushes need only a reversal; re-entries need a sort.
func (q *bucketQueue) load(k int) {
	q.bucket = q.bucket[:0]
	q.head = 0
	if k < 0 || k >= len(q.heads) {
		return
	}
	descending := true
	for id := q.heads[k]; id >= 0; id = q.next[id] {
		if n := len(q.bucket); n > 0 && q.bucket[n-1] < id {
			descending = false
		}
		q.bucket = append(q.bucket, id)
	}
	q.heads[k] = -1
	if descending {
		slices.Reverse(q.bucket)
	} else {
		slices.Sort(q.bucket)
	}
}

// start begins draining after the initial fill.
func (q *bucketQueue) start() {
	q.cur = q.maxKey
	q.load(q.cur)
}

// pop returns the (max key, min id) entry, or ok=false when the queue
// is exhausted (which also resets it for the next fill). Callers go
// through popLive, which keeps the deferred-invalidation protocol.
func (q *bucketQueue) pop() (id int32, key int, ok bool) {
	for q.cur >= 0 {
		if q.head < len(q.bucket) {
			id = q.bucket[q.head]
			q.head++
			return id, q.cur, true
		}
		q.cur--
		q.load(q.cur)
	}
	q.maxKey = 0
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
