package server

import (
	"container/list"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"strings"
	"sync"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/manager"
	"github.com/discdiversity/disc/internal/telemetry"
)

// A result id is a derivation key: it names what the result was
// computed from — the dataset, a fingerprint of its content, the
// algorithm, the select radius and the zoom radii in order — plus a
// checksum of the ids its select chose. So the server keeps results in
// a bounded cache and recomputes an evicted one, or one a previous
// process served, from its id alone.
//
// The checksum makes a recompute that picks other ids answer 404
// rather than other ids under the same id. Every algorithm but basic
// breaks ties by id, and which engine serves a radius (the coverage
// graph, or the M-tree past the adjacency budget) depends on the radius
// alone, so those selects and every greedy zoom pick the same ids
// whatever the dataset ran before, and always recompute
// (TestTieBreakingIDsIgnoreHistory). Basic-DisC walks the engine's scan
// order, which on the coverage graph is the grid's cell order at a
// bucketing radius the dataset's earlier selects chose: a basic id
// answers 404 once a recompute walks another order, and the same basic
// select then answers another id.
const (
	// maxZoomSteps bounds the zoom radii one id records; a zoom from a
	// result that already records this many is refused.
	maxZoomSteps = 8
	// resultCacheIDs bounds the result cache: the selected ids of every
	// resident result, plus resultEntryCharge per entry, stay at or
	// below it (8 MB of ids). It is set, not measured: no benchmark
	// workload yet issues enough distinct results to evict.
	resultCacheIDs = 1 << 20
	// resultEntryCharge is what one entry costs beyond its ids, in ids:
	// the list element, the map slot, the key and the Result header.
	resultEntryCharge = 32

	// resultKeyVersion is the first byte of every encoded key.
	resultKeyVersion = 1
	// resultKeyHeader is the encoded key's fixed prefix: version,
	// algorithm, fingerprint, checksum, radius bits, zoom count.
	resultKeyHeader = 1 + 1 + 4 + 4 + 8 + 1
)

// algorithms are the select algorithms by the names the API takes. A
// key stores an index into this table, so entries are only ever
// appended: an id a previous process served must name the same
// algorithm.
var algorithms = [...]struct {
	name string
	alg  disc.Algorithm
}{
	{"greedy", disc.AlgorithmGreedy},
	{"basic", disc.AlgorithmBasic},
	{"white-greedy", disc.AlgorithmGreedyWhite},
	{"lazy-grey", disc.AlgorithmLazyGrey},
	{"lazy-white", disc.AlgorithmLazyWhite},
	{"coverage", disc.AlgorithmCoverage},
	{"fast-coverage", disc.AlgorithmFastCoverage},
}

// algorithmIndex returns the table index of an API algorithm name; ""
// is greedy.
func algorithmIndex(name string) (uint8, error) {
	if name == "" {
		return 0, nil
	}
	for i, a := range algorithms {
		if a.name == name {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// keyEncoding renders keys as unpadded base64url, safe in a path
// segment. Strict rejects non-zero trailing bits, so one key has one
// spelling.
var keyEncoding = base64.RawURLEncoding.Strict()

// resultKey is a decoded result id.
type resultKey struct {
	dataset     string
	fingerprint uint32 // manager.Static.Fingerprint
	checksum    uint32 // idsChecksum of the select's ids
	algorithm   uint8  // index into algorithms
	radius      float64
	zooms       []float64
}

// String encodes the key: the fixed header, each zoom radius's float64
// bits, then the dataset name, all base64url.
func (k resultKey) String() string {
	b := make([]byte, 0, resultKeyHeader+8*len(k.zooms)+len(k.dataset))
	b = append(b, resultKeyVersion, k.algorithm)
	b = binary.LittleEndian.AppendUint32(b, k.fingerprint)
	b = binary.LittleEndian.AppendUint32(b, k.checksum)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.radius))
	b = append(b, byte(len(k.zooms)))
	for _, z := range k.zooms {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z))
	}
	b = append(b, k.dataset...)
	return keyEncoding.EncodeToString(b)
}

// parseResultKey decodes an id. It accepts exactly the strings String
// produces: a known version and algorithm, at most maxZoomSteps zooms
// and a valid dataset name. The decoder skips CR and LF, so an id
// holding either is refused to keep one spelling per key.
func parseResultKey(id string) (resultKey, bool) {
	if strings.ContainsAny(id, "\r\n") {
		return resultKey{}, false
	}
	b, err := keyEncoding.DecodeString(id)
	if err != nil || len(b) < resultKeyHeader || b[0] != resultKeyVersion || int(b[1]) >= len(algorithms) {
		return resultKey{}, false
	}
	n := int(b[resultKeyHeader-1])
	if n > maxZoomSteps || len(b) < resultKeyHeader+8*n {
		return resultKey{}, false
	}
	k := resultKey{
		algorithm:   b[1],
		fingerprint: binary.LittleEndian.Uint32(b[2:]),
		checksum:    binary.LittleEndian.Uint32(b[6:]),
		radius:      math.Float64frombits(binary.LittleEndian.Uint64(b[10:])),
		dataset:     string(b[resultKeyHeader+8*n:]),
	}
	if manager.ValidateName(k.dataset) != nil {
		return resultKey{}, false
	}
	if n > 0 {
		k.zooms = make([]float64, n)
		for i := range k.zooms {
			k.zooms[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[resultKeyHeader+8*i:]))
		}
	}
	return k, true
}

// zoom returns the key of this result zoomed to r.
func (k resultKey) zoom(r float64) resultKey {
	k.zooms = append(k.zooms[:len(k.zooms):len(k.zooms)], r)
	return k
}

// parent returns the key of the result this one was zoomed from; k
// must record a zoom.
func (k resultKey) parent() resultKey {
	k.zooms = k.zooms[:len(k.zooms)-1]
	return k
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// idsChecksum is a CRC-32C over ascending ids, each as a little-endian
// uint32.
func idsChecksum(sorted []int) uint32 {
	var crc uint32
	var buf [4 * 256]byte
	for len(sorted) > 0 {
		n := min(len(sorted), 256)
		for i, id := range sorted[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
		}
		crc = crc32.Update(crc, castagnoli, buf[:4*n])
		sorted = sorted[n:]
	}
	return crc
}

// Result cache metrics. The gauges sum over every server in the
// process; Close takes a server's share out.
var (
	metResultEntries = telemetry.Default().Gauge("disc_result_cache_entries",
		"Results resident in the result cache.")
	metResultIDs = telemetry.Default().Gauge("disc_result_cache_ids",
		"Selected ids held by the results resident in the result cache.")
	metLookupHit = telemetry.Default().Counter(`disc_result_lookups_total{outcome="hit"}`,
		"Result id lookups (GET /v1/results/{id} and a zoom's parent), by outcome.")
	metLookupRecomputed = telemetry.Default().Counter(`disc_result_lookups_total{outcome="recomputed"}`, "")
	metLookupUnknown    = telemetry.Default().Counter(`disc_result_lookups_total{outcome="unknown"}`, "")
)

// resultCache is the server-wide LRU from a result id to the result and
// the dataset engine that computed it. Its cost — each entry's ids plus
// resultEntryCharge — stays at or below budget; a result that alone
// costs more is returned but not kept.
type resultCache struct {
	mu      sync.Mutex
	budget  int
	used    int
	entries map[string]*list.Element
	lru     list.List          // of *cachedResult, most recently used first
	flights map[string]*flight // recomputes in progress, by id
}

type cachedResult struct {
	id   string
	st   *manager.Static
	res  *disc.Result
	cost int
}

// flight is one recompute in progress; done closes once res and err
// are set.
type flight struct {
	st   *manager.Static
	done chan struct{}
	res  *disc.Result
	err  error
}

var errRecomputeAbandoned = errors.New("result recompute did not finish")

func newResultCache(budget int) *resultCache {
	return &resultCache{budget: budget, entries: make(map[string]*list.Element), flights: make(map[string]*flight)}
}

// get returns the result cached under id if st computed it.
func (c *resultCache) get(id string, st *manager.Static) *disc.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(id, st)
}

// getLocked is get with c.mu held. An entry from an engine the dataset
// has since replaced (a recovery reloads it) is a miss, and is dropped
// so it no longer holds the old engine: zooms only take their own
// engine's results.
func (c *resultCache) getLocked(id string, st *manager.Static) *disc.Result {
	el, ok := c.entries[id]
	if !ok {
		return nil
	}
	e := el.Value.(*cachedResult)
	if e.st != st {
		c.remove(el)
		return nil
	}
	c.lru.MoveToFront(el)
	return e.res
}

// getOrCompute returns the result cached under id if st computed it,
// and otherwise what compute returns, cached. Callers that miss on the
// same id and engine at once share one compute: the first runs it and
// the others wait for its answer.
func (c *resultCache) getOrCompute(id string, st *manager.Static, compute func() (*disc.Result, error)) (*disc.Result, error) {
	c.mu.Lock()
	if res := c.getLocked(id, st); res != nil {
		c.mu.Unlock()
		return res, nil
	}
	if f := c.flights[id]; f != nil && f.st == st {
		c.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	f := &flight{st: st, done: make(chan struct{}), err: errRecomputeAbandoned}
	c.flights[id] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.flights[id] == f {
			delete(c.flights, id)
		}
		if f.err == nil {
			c.putLocked(id, st, f.res)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = compute()
	return f.res, f.err
}

// put stores or refreshes the entry for id.
func (c *resultCache) put(id string, st *manager.Static, res *disc.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(id, st, res)
}

// putLocked is put with c.mu held: it stores the entry, then evicts
// from the cold end until the cache fits its budget.
func (c *resultCache) putLocked(id string, st *manager.Static, res *disc.Result) {
	if el, ok := c.entries[id]; ok {
		c.remove(el)
	}
	cost := res.Size() + resultEntryCharge
	if cost > c.budget {
		return
	}
	c.entries[id] = c.lru.PushFront(&cachedResult{id: id, st: st, res: res, cost: cost})
	c.used += cost
	metResultEntries.Inc()
	metResultIDs.Add(int64(res.Size()))
	for c.used > c.budget {
		c.remove(c.lru.Back())
	}
}

// remove drops one entry; c.mu is held.
func (c *resultCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cachedResult)
	delete(c.entries, e.id)
	c.used -= e.cost
	metResultEntries.Dec()
	metResultIDs.Add(-int64(e.res.Size()))
}

// clear drops every entry.
func (c *resultCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lru.Len() > 0 {
		c.remove(c.lru.Back())
	}
}

// writeUnknownResult answers 404 for an id that names no result this
// server can produce.
func writeUnknownResult(w http.ResponseWriter, id string) {
	metLookupUnknown.Inc()
	writeError(w, http.StatusNotFound, "unknown result %q", id)
}

// result resolves the {id} path value to its key, dataset engine and
// result, writing the 404 or 503 itself. A cached result is served as
// is; otherwise the id's dataset must exist with the fingerprint the id
// records, and the result is recomputed (select, then each zoom) and
// cached.
func (s *Server) result(w http.ResponseWriter, r *http.Request) (resultKey, *manager.Static, *disc.Result) {
	id := r.PathValue("id")
	k, ok := parseResultKey(id)
	if !ok {
		writeUnknownResult(w, id)
		return resultKey{}, nil, nil
	}
	d, err := s.mgr.Get(k.dataset)
	if err != nil || !d.IsStatic() {
		writeUnknownResult(w, id)
		return resultKey{}, nil, nil
	}
	st, err := d.Static()
	if err != nil {
		writeUnavailable(w, err)
		return resultKey{}, nil, nil
	}
	if res := s.results.get(id, st); res != nil {
		metLookupHit.Inc()
		return k, st, res
	}
	if st.Fingerprint() != k.fingerprint {
		writeUnknownResult(w, id)
		return resultKey{}, nil, nil
	}
	res, err := s.derive(st, k, id)
	if err != nil {
		writeUnknownResult(w, id)
		return resultKey{}, nil, nil
	}
	metLookupRecomputed.Inc()
	return k, st, res
}

// derive returns the result k (encoded as id) on st: the cached copy,
// or a recompute from the nearest cached step of its chain, caching
// every step it computes. A select whose ids no longer match the key's
// checksum fails: its id then names nothing this server can produce.
func (s *Server) derive(st *manager.Static, k resultKey, id string) (*disc.Result, error) {
	return s.results.getOrCompute(id, st, func() (*disc.Result, error) {
		div := st.Diversifier()
		n := len(k.zooms)
		if n == 0 {
			res, err := div.Select(k.radius, disc.WithAlgorithm(algorithms[k.algorithm].alg))
			if err == nil && idsChecksum(res.SortedIDs()) != k.checksum {
				return nil, fmt.Errorf("a recompute of %s selects other ids", algorithms[k.algorithm].name)
			}
			return res, err
		}
		pk := k.parent()
		parent, err := s.derive(st, pk, pk.String())
		if err != nil {
			return nil, err
		}
		return zoom(div, parent, k.zooms[n-1])
	})
}

// zoom adapts res to radius r: Zoom-In below its radius, Greedy-Zoom-Out
// (largest red key first) above it.
func zoom(div *disc.Diversifier, res *disc.Result, r float64) (*disc.Result, error) {
	switch {
	case r < res.Radius():
		return div.ZoomIn(res, r)
	case r > res.Radius():
		return div.ZoomOut(res, r, disc.ZoomOutGreedyLargest)
	default:
		return nil, fmt.Errorf("radius %g equals the current radius", r)
	}
}
