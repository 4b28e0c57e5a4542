package core

// lazyHeap is the priority structure the paper calls L': objects ordered
// by the size of their white neighbourhood. Keys change frequently as
// objects are covered, so the heap uses lazy invalidation: every key
// change pushes a fresh item and stale items are discarded at pop time by
// comparing against the caller's authoritative count array.
//
// Ordering is (key desc, id asc), which makes every algorithm
// deterministic and lets the flat and tree engines produce identical
// solutions.
//
// The sift operations are implemented directly on the typed slice rather
// than through container/heap: the standard library's interface-based
// API boxes every pushed and popped item into an `any`, which costs one
// heap allocation per operation — at 50k objects that alone was ~430k
// allocations per Greedy-DisC run.
type lazyHeap struct{ items []heapItem }

type heapItem struct {
	key int
	id  int
}

// less orders (key desc, id asc).
func (a heapItem) less(b heapItem) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.id < b.id
}

func newLazyHeap(capacity int) *lazyHeap {
	return &lazyHeap{items: make([]heapItem, 0, capacity)}
}

// Len returns the number of (possibly stale) entries.
func (h *lazyHeap) Len() int { return len(h.items) }

// push records a (possibly updated) key for id. Allocation-free while
// the backing array has capacity.
func (h *lazyHeap) push(id, key int) {
	h.items = append(h.items, heapItem{key: key, id: id})
	h.up(len(h.items) - 1)
}

// popValid returns the id with the largest current key for which
// valid(id, key) holds, discarding stale entries. ok is false when the
// heap is exhausted.
func (h *lazyHeap) popValid(valid func(id, key int) bool) (id int, ok bool) {
	for len(h.items) > 0 {
		it := h.items[0]
		last := len(h.items) - 1
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		if last > 0 {
			h.down(0)
		}
		if valid(it.id, it.key) {
			return it.id, true
		}
	}
	return 0, false
}

func (h *lazyHeap) up(i int) {
	items := h.items
	it := items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
}

func (h *lazyHeap) down(i int) {
	items := h.items
	n := len(items)
	it := items[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && items[right].less(items[child]) {
			child = right
		}
		if !items[child].less(it) {
			break
		}
		items[i] = items[child]
		i = child
	}
	items[i] = it
}
