package core

import "math"

// The trace-bounded repair.
//
// A pick of the pruned greedy happens at a priority
// key<<32 | ^id — white-neighbour count descending, id ascending —
// and these priorities strictly decrease over a run. Read the run as a
// sweep of that priority downwards: an object picks itself when the
// sweep reaches its current priority, and leaves as a grey when a
// neighbour picks first. Either way, when an object stops being white
// depends only on when its neighbours do. LiveDisC.trace records that
// leave time per object (an object is selected exactly when its leave
// time names itself), so a write only changes the run from the objects
// it touched outwards.
//
// repair replays the sweep over an active set that starts at the
// seeds, the objects whose neighbourhood a write changed. An active
// object carries its own white flag and white-neighbour count. Every
// other object is assumed to leave at its recorded time, and takes part
// only as an event at that time for its active neighbours. It joins the
// active set, with its state just after the current time, the moment a
// neighbour's new leave time turns out to differ from the recorded one:
// until then everything it could observe ran as recorded, so its own
// record still holds. Events at one time t (which names one picker q)
// run in a fixed order: q's pick, then the divergence checks and joins,
// then the leaves of objects still outside.

// repairEvent is one entry of the sweep's max-heap, ordered by t.
type repairEvent struct {
	t    uint64
	id   int32
	kind int32
}

const (
	// evPick: id is active and white, and t was its priority at the push
	// (entries are lazy: its count may have dropped since).
	evPick int32 = iota
	// evCheck: id is active and t is its recorded leave time.
	evCheck
	// evWatch: id was outside, next to an active white object (a
	// watcher), and t is its recorded leave time.
	evWatch
)

// liveRepair is the sweep's state, grown with the slot domain. Between
// flushes it holds only the queued seeds (active, white and joined).
type liveRepair struct {
	st []uint8 // per slot: stActive | stWhite | stDiv | stWatched
	// watchers[y] heads (index+1 into links, 0 for none) the list of
	// active objects that counted the outside object y as white.
	watchers []int32
	links    []watcher
	members  []int32 // every active object, for the final reset
	watches  []int32 // every watched object, for the final reset
	joined   []int32 // joined at the current time, counts pending
	leaving  []int32 // greys of the current time's pick
	work     []int32 // diverged objects whose outside neighbours must join
	evs      []repairEvent
	heap     []repairEvent
}

// Sweep states of a slot, one bit each.
const (
	stActive  uint8 = 1 << iota // joined the sweep
	stWhite                     // active and still white
	stDiv                       // leave time diverged, outside neighbours joined
	stWatched                   // outside, with an evWatch queued
)

// watcher is one link of a watchers list.
type watcher struct{ w, next int32 }

// grow extends the sweep's state to n slots.
func (rs *liveRepair) grow(n int) {
	for len(rs.st) < n {
		rs.st = append(rs.st, 0)
		rs.watchers = append(rs.watchers, 0)
	}
}

// is reports whether slot id has state bit b.
func (rs *liveRepair) is(id int, b uint8) bool { return rs.st[id]&b != 0 }

// leaveTime is the priority of a pick: count descending, id ascending.
func leaveTime(key int32, id int) uint64 {
	return uint64(key)<<32 | uint64(^uint32(id))
}

// picked reports whether leave time t names id itself, that is whether
// id was selected.
func picked(t uint64, id int) bool { return uint32(t) == ^uint32(id) }

// queue makes id a seed of the next repair: active and white from the
// start of the sweep.
func (l *LiveDisC) queue(id int32) {
	rs := &l.rs
	if !rs.is(int(id), stActive) {
		l.enter(id)
		rs.st[id] |= stWhite
		rs.joined = append(rs.joined, id)
	}
}

// repair replays the greedy sweep from the queued seeds, folding every
// changed leave time into l.trace and the selection as it happens.
func (l *LiveDisC) repair() {
	rs := &l.rs
	for len(l.nw) < l.dyn.Slots() {
		l.nw = append(l.nw, 0)
	}
	l.countJoined(math.MaxUint64)
	for len(rs.heap) > 0 {
		l.sweepStep()
	}
	metLiveResimulated.Add(uint64(len(rs.members)))
	for _, x := range rs.members {
		if rs.is(int(x), stWhite) {
			panic("core: live: repair left an active object white")
		}
		rs.st[x] = 0
	}
	rs.members = rs.members[:0]
	for _, y := range rs.watches {
		rs.st[y] &^= stWatched
		rs.watchers[y] = 0
	}
	rs.watches = rs.watches[:0]
	// The links and the heap keep their capacity for the next sweep:
	// links holds at most one entry per adjacency entry and the heap a
	// few events per object, so both stay bounded by the adjacency
	// already resident.
	rs.links = rs.links[:0]
}

// enter adds an outside object to the active set (not yet white).
func (l *LiveDisC) enter(id int32) {
	l.rs.st[id] |= stActive
	l.rs.members = append(l.rs.members, id)
}

// leave records that active object id stopped being white at t: its
// trace and selection bit take the new run's values, and it counts as
// leaving at t. A leave that differs from the record queues id as
// diverged; an object without a record (inserted since the last flush)
// never diverges, as all its neighbours are seeds.
func (l *LiveDisC) leave(id int32, t uint64) {
	rs := &l.rs
	rs.st[id] &^= stWhite
	rs.leaving = append(rs.leaving, id)
	old := l.trace[id]
	if old == t {
		return
	}
	if is := picked(t, int(id)); is != picked(old, int(id)) {
		if is {
			l.sel.Set(int(id))
			l.selCount++
		} else {
			l.sel.Clear(int(id))
			l.selCount--
		}
	}
	l.trace[id] = t
	if old != 0 {
		rs.work = append(rs.work, id)
	}
}

// countJoined computes the white-neighbour count of every object that
// joined as white at time t, now that all of them are marked: active
// neighbours count when white, outside ones when their recorded leave
// time is still to come, and each of those is watched from then on,
// with the joiner among its watchers. It
// then queues each joiner's own pick and, when its recorded leave is
// still to come, a check of it. Seeds deleted before the flush are
// skipped.
func (l *LiveDisC) countJoined(t uint64) {
	rs := &l.rs
	for _, y := range rs.joined {
		if !rs.is(int(y), stWhite) {
			continue
		}
		cnt := int32(0)
		row := l.adj.Row(int(y))
		l.accesses += int64(len(row))
		for _, nb := range row {
			j := nb.ID
			if rs.is(j, stActive) {
				if rs.is(j, stWhite) {
					cnt++
				}
			} else if lo := l.trace[j]; lo < t {
				cnt++
				if !rs.is(j, stWatched) {
					rs.st[j] |= stWatched
					rs.watches = append(rs.watches, int32(j))
					rs.push(repairEvent{t: lo, id: int32(j), kind: evWatch})
				}
				rs.links = append(rs.links, watcher{w: y, next: rs.watchers[j]})
				rs.watchers[j] = int32(len(rs.links))
			}
		}
		l.nw[y] = cnt
		rs.push(repairEvent{t: leaveTime(cnt, int(y)), id: y, kind: evPick})
		if lo := l.trace[y]; lo != 0 && lo < t {
			rs.push(repairEvent{t: lo, id: y, kind: evCheck})
		}
	}
	rs.joined = rs.joined[:0]
}

// sweepStep processes every event at the largest pending time t.
func (l *LiveDisC) sweepStep() {
	rs := &l.rs
	t := rs.heap[0].t
	rs.evs = rs.evs[:0]
	for len(rs.heap) > 0 && rs.heap[0].t == t {
		rs.evs = append(rs.evs, rs.pop())
	}
	q := int(^uint32(t))
	qActive := rs.is(q, stActive)
	// Only q can pick at t. Active, it picks when it is white at that
	// priority; outside, its record still holds (it would have joined
	// had any neighbour diverged), unless it has been deleted.
	fires := l.dyn.Alive(q)
	if qActive {
		fires = rs.is(q, stWhite) && leaveTime(l.nw[q], q) == t
	}

	// The pick: q and its white neighbours leave.
	rs.leaving = rs.leaving[:0]
	rs.work = rs.work[:0]
	switch {
	case fires && qActive:
		if lo := l.trace[q]; lo != t && lo != 0 {
			// Every outside neighbour still white joins just below.
			rs.st[q] |= stDiv
		}
		l.leave(int32(q), t)
		rs.leaving = rs.leaving[:0] // no white neighbour survives a pick
		row := l.adj.Row(q)
		l.accesses += int64(len(row))
		for _, nb := range row {
			j := int32(nb.ID)
			switch {
			case rs.is(nb.ID, stWhite):
				l.leave(j, t)
			case !rs.is(nb.ID, stActive) && l.trace[j] < t:
				// A white outside neighbour of a pick the record does
				// not have: it greys here instead of later.
				l.enter(j)
				l.leave(j, t)
			}
		}
	case fires:
		// An outside pick: every active white neighbour joined after
		// q's record began and so watches it.
		for e := rs.watchers[q]; e != 0; e = rs.links[e-1].next {
			l.accesses++
			if w := rs.links[e-1].w; rs.is(int(w), stWhite) {
				l.leave(w, t)
			}
		}
	}
	// Each grey was a white neighbour of its white neighbours.
	for _, g := range rs.leaving {
		row := l.adj.Row(int(g))
		l.accesses += int64(len(row))
		for _, nb := range row {
			if rs.is(nb.ID, stWhite) {
				l.nw[nb.ID]--
			}
		}
	}

	// Divergence: an active object left at another time than recorded,
	// or did not leave at its recorded time. Its outside neighbours
	// join, all marked before any count is taken (a failed pick's
	// recorded greys stay white and must see each other so).
	for _, ev := range rs.evs {
		if ev.kind == evCheck && rs.is(int(ev.id), stWhite) {
			rs.work = append(rs.work, ev.id)
		}
	}
	for len(rs.work) > 0 {
		x := rs.work[len(rs.work)-1]
		rs.work = rs.work[:len(rs.work)-1]
		if rs.is(int(x), stDiv) {
			continue
		}
		rs.st[x] |= stDiv
		row := l.adj.Row(int(x))
		l.accesses += int64(len(row))
		for _, nb := range row {
			j := int32(nb.ID)
			if rs.is(nb.ID, stActive) {
				continue
			}
			lo := l.trace[j]
			if lo > t || (lo == t && fires) {
				continue // left as recorded
			}
			l.enter(j)
			rs.st[nb.ID] |= stWhite
			rs.joined = append(rs.joined, j)
			if lo == t {
				rs.work = append(rs.work, j) // a grey of the failed pick
			}
		}
	}

	// Outside leaves: recorded greys of q still outside leave as
	// recorded (q fired: had it not, they would have joined), and each
	// of their watchers loses a white neighbour. Objects joining at t
	// watch only later leaves.
	for _, ev := range rs.evs {
		if ev.kind != evWatch || int(ev.id) == q || rs.is(int(ev.id), stActive) {
			continue
		}
		for e := rs.watchers[ev.id]; e != 0; e = rs.links[e-1].next {
			l.accesses++
			if w := rs.links[e-1].w; rs.is(int(w), stWhite) {
				l.nw[w]--
			}
		}
	}
	l.countJoined(t)
	if !fires && rs.is(q, stWhite) {
		for _, ev := range rs.evs {
			if ev.kind == evPick {
				rs.push(repairEvent{t: leaveTime(l.nw[q], q), id: ev.id, kind: evPick})
			}
		}
	}
}

// push adds e to the sweep's max-heap.
func (rs *liveRepair) push(e repairEvent) {
	h := append(rs.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].t >= e.t {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	rs.heap = h
}

// pop removes and returns the entry with the largest t.
func (rs *liveRepair) pop() repairEvent {
	h := rs.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].t > h[c].t {
			c++
		}
		if h[c].t <= last.t {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	rs.heap = h
	return top
}
