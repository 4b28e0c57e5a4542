// Package snap implements the .discsnap binary snapshot format: a
// versioned, checksummed, little-endian container that persists a flat
// dataset together with the coverage-graph CSR, the prepared per-radius
// artifact the engines are expensive to rebuild, so a process can
// warm-start instead of re-joining. The grid the graph was joined on is
// not persisted: it is a pure function of the points, the metric and the
// radius it was bucketed at, so a snapshot records that radius and the
// loader re-buckets.
//
// # Layout
//
// A snapshot is one contiguous byte stream:
//
//	header (20 bytes):
//	  [0:8)   magic "DISCSNAP"
//	  [8:12)  uint32 format version (currently 1)
//	  [12:16) uint32 section count
//	  [16:20) uint32 CRC-32C of the section table
//	section table (24 bytes per section):
//	  uint32 kind, uint32 CRC-32C of the payload,
//	  uint64 file offset, uint64 payload length
//	payloads, each starting at an 8-byte-aligned offset,
//	zero padding between them
//
// Section kinds of version 1: meta (1, index name and the build
// parameters: seed, parallelism, M-tree capacity), dataset (2, metric
// name plus the n×dim row-major coordinate array), graph (4, the
// coverage-graph CSR with its build radius; a static graph's rows are
// ascending by (distance, id), a live checkpoint's and an older
// writer's by id, and the loaders check the order they need),
// dataset32 (6, the float32-precision dataset: metric name, a squared
// norm count, and unpadded n×dim row-major float32 coordinates; written
// instead of kind 2 when the writer's dataset is Float32; writers set
// the norm count to 0, and a reader bounds-checks the n norms an older
// writer stored after the coordinates and skips them, since the loader
// recomputes them), walepoch (7, the uint64 write-ahead-log epoch this
// snapshot begins — written only by durable checkpoints; see
// docs/DURABILITY.md), labels (8, one display string per point:
// uint64 count, which must equal the dataset's n, then count uint32
// byte lengths, then the concatenated bytes), and gridradius (9, the
// f64 radius the grid under a grid-joined graph was bucketed at).
// Kinds 6–9 were added after version 1 shipped and are readable by all
// version-1 readers through the unknown-kind skip; a reader too old to
// know kind 6 fails a float32 snapshot safely with "no dataset section"
// rather than misreading it. Kind 5 (the graph's connected-component
// labels) is retired: nothing writes it any more, and readers skip it
// like an unknown kind, after checking its checksum. Kind 3 (the grid
// occupancy) is retired too: nothing writes it, and readers take only
// its leading f64, the bucketing radius, as if it were kind 9. Every
// multi-byte value is little-endian; float64s and float32s are IEEE 754
// bit patterns; neighbour entries are (int64 id, float64 dist) pairs.
//
// # Versioning policy
//
// Readers reject any format version other than their own and skip
// section kinds they do not recognise, so new sections can be added
// without a version bump; the version only changes when an existing
// section's layout changes incompatibly. Payload offsets and lengths
// come from the section table, never from sniffing, which is what makes
// the skip safe.
//
// # Decoding
//
// Decode aliases the large arrays (coordinates, adjacency)
// directly into the byte buffer via unsafe.Slice — no per-element
// copies — whenever the platform is little-endian and the in-memory
// layout matches the wire layout (8-byte-aligned offsets are guaranteed
// by the writer; the buffer base is checked at runtime). Platforms or
// layouts that do not qualify fall back to an element-wise decode, so
// the format itself stays portable. Decoded snapshots retain the
// buffer; treat every slice as read-only. Read slurps a stream in one
// contiguous read and decodes it.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
	"unsafe"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/telemetry"
)

// Serialisation timers: one observation per snapshot written or read
// (checkpoints, warm starts, recovery).
var (
	metWrite = telemetry.Default().Histogram("disc_snapshot_write_seconds",
		"Wall time of serialising one snapshot (snap.Write).")
	metRead = telemetry.Default().Histogram("disc_snapshot_read_seconds",
		"Wall time of decoding and verifying one snapshot (snap.Decode).")
)

// ErrCorrupt marks a snapshot whose bytes failed validation — a CRC
// mismatch, bad magic, an impossible section shape. Every Decode error
// matches it (test with errors.Is); an I/O failure while reading does
// not, which is how the dataset manager tells quarantine from retry.
var ErrCorrupt = errors.New("unrecoverable corruption")

// Version is the format version this package reads and writes.
const Version = 1

const (
	magic      = "DISCSNAP"
	headerSize = 20
	entrySize  = 24

	kindMeta    = 1
	kindDataset = 2
	// Kinds 3 and 5 are retired (see the package comment); do not
	// reuse them. Kind 3 is still read for its radius.
	kindGridRetired = 3
	kindGraph       = 4
	kindDataset32   = 6
	kindWALEpoch    = 7
	kindLabels      = 8
	kindGridRadius  = 9
)

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on
// the platforms that matter, which keeps checksumming off the warm-load
// critical path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nativeLittle reports whether the platform stores integers
// little-endian, the precondition for zero-copy array encode/decode.
var nativeLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// neighborWireLayout reports whether object.Neighbor's in-memory layout
// matches the wire layout (16 bytes: int64 id at offset 0, float64 dist
// at offset 8), the precondition for bulk-copying adjacency arrays.
var neighborWireLayout = func() bool {
	var nb object.Neighbor
	return unsafe.Sizeof(nb) == 16 &&
		unsafe.Offsetof(nb.Dist) == 8 &&
		unsafe.Sizeof(int(0)) == 8
}()

// Snapshot is the in-memory form of a .discsnap file. Coords and Graph
// may alias a decoded file buffer (see the package comment) and
// must be treated as read-only.
type Snapshot struct {
	// Index is the configured backend name ("mtree", "coverage-graph",
	// or a retired alias such as "grid"); empty when the writer recorded
	// none.
	Index string
	// Parallelism is the coverage-graph build worker count (0 = default).
	Parallelism int
	// Capacity is the M-tree node capacity; Seed the index-construction
	// seed. Both are persisted so deterministic rebuilds of the
	// dataset-only backends reproduce the writer's engine exactly.
	Capacity int
	Seed     uint64

	// Metric names the distance function the coordinates were indexed
	// under; N, Dim and Coords are the row-major dataset. Exactly one of
	// Coords and Coords32 is set: Coords32 carries a float32-precision
	// dataset (unpadded row-major).
	Metric   string
	N, Dim   int
	Coords   []float64
	Coords32 []float32

	// Labels, when non-nil, holds one display label per point. Unlike
	// the arrays above, the strings are copies and do not alias the
	// decoded buffer.
	Labels []string

	// GridRadius, when non-nil, is the radius the grid under the graph
	// was bucketed at; nil when the graph was flat-joined. It can be
	// coarser than GraphRadius (a raised ceiling keeps a grid whose
	// cells still cover it), and loaders re-bucket at exactly this
	// radius, since the grid's cell order decides scan-order selections.
	// Decode passes the stored value through unchecked.
	GridRadius *float64

	// Graph, when non-nil, is the persisted coverage-graph adjacency,
	// joined at GraphRadius.
	GraphRadius float64
	Graph       *grid.CSR

	// WALEpoch, when non-zero, marks this snapshot as a durable
	// checkpoint: the write-ahead log of the same state begins a new
	// epoch with this number, and recovery replays exactly the log
	// segments stamped with it (internal/wal; docs/DURABILITY.md).
	// Zero means the snapshot was written outside the WAL lifecycle and
	// carries no walepoch section.
	WALEpoch uint64
}

// validate checks the shape invariants Write relies on to size sections.
func (s *Snapshot) validate() error {
	if s.Metric == "" {
		return fmt.Errorf("snap: no metric name")
	}
	if s.N <= 0 || s.Dim <= 0 || s.N > math.MaxInt32 {
		return fmt.Errorf("snap: invalid dataset shape %d x %d", s.N, s.Dim)
	}
	switch {
	case s.Coords != nil && s.Coords32 != nil:
		return fmt.Errorf("snap: both float64 and float32 coordinates set")
	case s.Coords32 != nil:
		if len(s.Coords32) != s.N*s.Dim {
			return fmt.Errorf("snap: %d float32 coordinates for shape %d x %d", len(s.Coords32), s.N, s.Dim)
		}
	default:
		if len(s.Coords) != s.N*s.Dim {
			return fmt.Errorf("snap: %d coordinates for shape %d x %d", len(s.Coords), s.N, s.Dim)
		}
	}
	if len(s.Metric) > math.MaxInt32/2 || len(s.Index) > math.MaxInt32/2 {
		return fmt.Errorf("snap: unreasonable name length")
	}
	if s.Labels != nil && len(s.Labels) != s.N {
		return fmt.Errorf("snap: %d labels for %d points", len(s.Labels), s.N)
	}
	for i, l := range s.Labels {
		if uint64(len(l)) > math.MaxUint32 {
			return fmt.Errorf("snap: label %d is %d bytes, more than its uint32 length can say", i, len(l))
		}
	}
	if c := s.Graph; c != nil {
		if len(c.Offsets) != s.N+1 {
			return fmt.Errorf("snap: graph offsets sized for %d points, dataset has %d", len(c.Offsets)-1, s.N)
		}
		if int(c.Offsets[s.N]) != len(c.Nbrs) {
			return fmt.Errorf("snap: graph offsets do not span the packed neighbours")
		}
	}
	return nil
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// enc is a cursor over the preallocated output buffer.
type enc struct {
	b   []byte
	off int
}

func (e *enc) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.b[e.off:], v)
	e.off += 4
}

func (e *enc) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.b[e.off:], v)
	e.off += 8
}

func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	copy(e.b[e.off:], s)
	e.off += len(s)
}

// pad8 advances to the next 8-byte file offset (the buffer is
// zero-initialised, so padding bytes are deterministic).
func (e *enc) pad8() { e.off = align8(e.off) }

func (e *enc) f64s(v []float64) {
	if nativeLittle && len(v) > 0 {
		copy(e.b[e.off:], unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint64(e.b[e.off+8*i:], math.Float64bits(x))
		}
	}
	e.off += 8 * len(v)
}

func (e *enc) f32s(v []float32) {
	if nativeLittle && len(v) > 0 {
		copy(e.b[e.off:], unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint32(e.b[e.off+4*i:], math.Float32bits(x))
		}
	}
	e.off += 4 * len(v)
}

func (e *enc) i32s(v []int32) {
	if nativeLittle && len(v) > 0 {
		copy(e.b[e.off:], unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint32(e.b[e.off+4*i:], uint32(x))
		}
	}
	e.off += 4 * len(v)
}

func (e *enc) neighbors(v []object.Neighbor) {
	if nativeLittle && neighborWireLayout && len(v) > 0 {
		copy(e.b[e.off:], unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 16*len(v)))
	} else {
		for i, nb := range v {
			binary.LittleEndian.PutUint64(e.b[e.off+16*i:], uint64(int64(nb.ID)))
			binary.LittleEndian.PutUint64(e.b[e.off+16*i+8:], math.Float64bits(nb.Dist))
		}
	}
	e.off += 16 * len(v)
}

// section pairs a kind with its payload size and emitter.
type section struct {
	kind uint32
	size int
	emit func(*enc)
}

// Write serialises s to w in the version-1 layout. The encoding is
// deterministic: the same snapshot always produces byte-identical
// output, which the round-trip tests rely on.
func Write(w io.Writer, s *Snapshot) error {
	defer telemetry.Since(metWrite, time.Now())
	if err := s.validate(); err != nil {
		return err
	}

	secs := []section{
		{kindMeta, 8 + 4 + 4 + 4 + len(s.Index), func(e *enc) {
			e.u64(s.Seed)
			e.u32(uint32(s.Parallelism))
			e.u32(uint32(s.Capacity))
			e.str(s.Index)
		}},
	}
	if s.Coords32 != nil {
		// Float32 coordinates; the norm count is always 0 (see the
		// package comment).
		secs = append(secs, section{kindDataset32,
			align8(8+8+8+4+len(s.Metric)) + 4*len(s.Coords32),
			func(e *enc) {
				e.u64(uint64(s.N))
				e.u64(uint64(s.Dim))
				e.u64(0)
				e.str(s.Metric)
				e.pad8()
				e.f32s(s.Coords32)
			}})
	} else {
		secs = append(secs, section{kindDataset,
			align8(8+8+4+len(s.Metric)) + 8*len(s.Coords),
			func(e *enc) {
				e.u64(uint64(s.N))
				e.u64(uint64(s.Dim))
				e.str(s.Metric)
				e.pad8()
				e.f64s(s.Coords)
			}})
	}
	if c := s.Graph; c != nil {
		secs = append(secs, section{kindGraph,
			align8(8+8+8+4*len(c.Offsets)) + 16*len(c.Nbrs),
			func(e *enc) {
				e.f64(s.GraphRadius)
				e.u64(uint64(s.N))
				e.u64(uint64(len(c.Nbrs)))
				e.i32s(c.Offsets)
				e.pad8()
				e.neighbors(c.Nbrs)
			}})
	}
	if s.WALEpoch != 0 {
		secs = append(secs, section{kindWALEpoch, 8, func(e *enc) {
			e.u64(s.WALEpoch)
		}})
	}
	if l := s.Labels; l != nil {
		size := 8 + 4*len(l)
		for _, x := range l {
			size += len(x)
		}
		secs = append(secs, section{kindLabels, size, func(e *enc) {
			e.u64(uint64(len(l)))
			for _, x := range l {
				e.u32(uint32(len(x)))
			}
			for _, x := range l {
				e.off += copy(e.b[e.off:], x)
			}
		}})
	}

	if g := s.GridRadius; g != nil {
		secs = append(secs, section{kindGridRadius, 8, func(e *enc) {
			e.f64(*g)
		}})
	}

	tableEnd := headerSize + entrySize*len(secs)
	offsets := make([]int, len(secs))
	total := align8(tableEnd)
	for i, sec := range secs {
		offsets[i] = total
		total = align8(total + sec.size)
	}
	// No padding is owed after the final section.
	total = offsets[len(secs)-1] + secs[len(secs)-1].size

	buf := make([]byte, total)
	copy(buf, magic)
	h := &enc{b: buf, off: 8}
	h.u32(Version)
	h.u32(uint32(len(secs)))
	// Table CRC is written once the table is filled in below.

	for i, sec := range secs {
		e := &enc{b: buf, off: offsets[i]}
		sec.emit(e)
		if e.off != offsets[i]+sec.size {
			return fmt.Errorf("snap: internal error: section kind %d emitted %d bytes, sized %d", sec.kind, e.off-offsets[i], sec.size)
		}
		t := &enc{b: buf, off: headerSize + entrySize*i}
		t.u32(sec.kind)
		t.u32(crc32.Checksum(buf[offsets[i]:offsets[i]+sec.size], castagnoli))
		t.u64(uint64(offsets[i]))
		t.u64(uint64(sec.size))
	}
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[headerSize:tableEnd], castagnoli))

	_, err := w.Write(buf)
	return err
}

// dec is a cursor over one section's payload; bounds are pre-validated
// by exact size equations before any field is read.
type dec struct {
	b   []byte
	off int
}

func (d *dec) u32() uint32 {
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) pad8() { d.off = align8(d.off) }

// f64s decodes count float64s, aliasing the buffer when possible.
func (d *dec) f64s(count int) []float64 {
	raw := d.b[d.off : d.off+8*count]
	d.off += 8 * count
	if count == 0 {
		return nil
	}
	if nativeLittle && uintptr(unsafe.Pointer(&raw[0]))%unsafe.Alignof(float64(0)) == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), count)
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// f32s decodes count float32s, aliasing the buffer when possible.
func (d *dec) f32s(count int) []float32 {
	raw := d.b[d.off : d.off+4*count]
	d.off += 4 * count
	if count == 0 {
		return nil
	}
	if nativeLittle && uintptr(unsafe.Pointer(&raw[0]))%unsafe.Alignof(float32(0)) == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), count)
	}
	out := make([]float32, count)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// i32s decodes count int32s, aliasing the buffer when possible.
func (d *dec) i32s(count int) []int32 {
	raw := d.b[d.off : d.off+4*count]
	d.off += 4 * count
	if count == 0 {
		return nil
	}
	if nativeLittle && uintptr(unsafe.Pointer(&raw[0]))%unsafe.Alignof(int32(0)) == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// neighbors decodes count wire neighbour pairs, aliasing when the
// in-memory layout matches.
func (d *dec) neighbors(count int) []object.Neighbor {
	raw := d.b[d.off : d.off+16*count]
	d.off += 16 * count
	if count == 0 {
		return nil
	}
	if nativeLittle && neighborWireLayout &&
		uintptr(unsafe.Pointer(&raw[0]))%unsafe.Alignof(object.Neighbor{}) == 0 {
		return unsafe.Slice((*object.Neighbor)(unsafe.Pointer(&raw[0])), count)
	}
	out := make([]object.Neighbor, count)
	for i := range out {
		out[i] = object.Neighbor{
			ID:   int(int64(binary.LittleEndian.Uint64(raw[16*i:]))),
			Dist: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])),
		}
	}
	return out
}

// str decodes a length-prefixed string with an explicit bound check
// (strings are the one variable-length field read before a section's
// exact size equation can be formed).
func (d *dec) str(limit int) (string, error) {
	if limit-d.off < 4 {
		return "", io.ErrUnexpectedEOF
	}
	n := int(d.u32())
	if n < 0 || limit-d.off < n {
		return "", io.ErrUnexpectedEOF
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s, nil
}

// readAll slurps r, pre-sizing the buffer when r is seekable so the
// common file and bytes.Reader paths cost one allocation and one copy.
func readAll(r io.Reader) ([]byte, error) {
	if sk, ok := r.(io.Seeker); ok {
		cur, err := sk.Seek(0, io.SeekCurrent)
		if err == nil {
			if end, err := sk.Seek(0, io.SeekEnd); err == nil {
				if _, err := sk.Seek(cur, io.SeekStart); err == nil && end > cur {
					buf := make([]byte, end-cur)
					if _, err := io.ReadFull(r, buf); err != nil {
						return nil, err
					}
					return buf, nil
				}
			}
		}
	}
	return io.ReadAll(r)
}

// Read slurps r and decodes it (see Decode). A read failure is returned
// as is and does not match ErrCorrupt.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return Decode(data)
}

// Decode decodes a snapshot from data in place (the result aliases
// data), verifying the magic, version, section table checksum and every
// section checksum before trusting a byte of payload. Unknown section
// kinds are skipped (see the versioning policy); duplicate or
// structurally inconsistent sections are rejected. Every error matches
// ErrCorrupt.
func Decode(data []byte) (*Snapshot, error) {
	defer telemetry.Since(metRead, time.Now())
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%w)", err, ErrCorrupt)
	}
	return s, nil
}

func decode(data []byte) (*Snapshot, error) {
	var err error
	if len(data) < headerSize {
		return nil, fmt.Errorf("snap: truncated header (%d bytes)", len(data))
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("snap: not a discsnap stream (bad magic)")
	}
	h := &dec{b: data, off: 8}
	if v := h.u32(); v != Version {
		return nil, fmt.Errorf("snap: unsupported format version %d (reader supports %d)", v, Version)
	}
	nsec := int(h.u32())
	tableCRC := h.u32()
	if nsec <= 0 || nsec > (len(data)-headerSize)/entrySize {
		return nil, fmt.Errorf("snap: truncated section table (%d sections declared)", nsec)
	}
	tableEnd := headerSize + entrySize*nsec
	if crc32.Checksum(data[headerSize:tableEnd], castagnoli) != tableCRC {
		return nil, fmt.Errorf("snap: section table checksum mismatch")
	}

	s := &Snapshot{}
	seen := map[uint32]bool{}
	var graphSec, labelSec *dec
	var graphLen, labelLen int
	for i := 0; i < nsec; i++ {
		t := &dec{b: data, off: headerSize + entrySize*i}
		kind := t.u32()
		crc := t.u32()
		off64, len64 := t.u64(), t.u64()
		if off64 > uint64(len(data)) || len64 > uint64(len(data))-off64 {
			return nil, fmt.Errorf("snap: section %d extends past the end of the stream", i)
		}
		off, length := int(off64), int(len64)
		if off%8 != 0 || off < tableEnd {
			return nil, fmt.Errorf("snap: section %d is misaligned", i)
		}
		if crc32.Checksum(data[off:off+length], castagnoli) != crc {
			return nil, fmt.Errorf("snap: section %d (kind %d) checksum mismatch", i, kind)
		}
		if seen[kind] {
			return nil, fmt.Errorf("snap: duplicate section kind %d", kind)
		}
		seen[kind] = true
		d := &dec{b: data[:off+length], off: off}
		switch kind {
		case kindMeta:
			if length < 20 {
				return nil, fmt.Errorf("snap: meta section truncated")
			}
			s.Seed = d.u64()
			s.Parallelism = int(int32(d.u32()))
			s.Capacity = int(int32(d.u32()))
			if s.Index, err = d.str(off + length); err != nil {
				return nil, fmt.Errorf("snap: meta section truncated")
			}
		case kindDataset:
			if s.N != 0 {
				return nil, fmt.Errorf("snap: more than one dataset section")
			}
			if length < 20 {
				return nil, fmt.Errorf("snap: dataset section truncated")
			}
			n, dim := d.u64(), d.u64()
			if n == 0 || n > math.MaxInt32 || dim == 0 || dim > 1<<20 {
				return nil, fmt.Errorf("snap: implausible dataset shape %d x %d", n, dim)
			}
			if s.Metric, err = d.str(off + length); err != nil {
				return nil, fmt.Errorf("snap: dataset section truncated")
			}
			d.pad8()
			s.N, s.Dim = int(n), int(dim)
			if length != (d.off-off)+8*s.N*s.Dim {
				return nil, fmt.Errorf("snap: dataset section length %d does not match shape %d x %d", length, n, dim)
			}
			s.Coords = d.f64s(s.N * s.Dim)
		case kindDataset32:
			if s.N != 0 {
				return nil, fmt.Errorf("snap: more than one dataset section")
			}
			if length < 28 {
				return nil, fmt.Errorf("snap: dataset32 section truncated")
			}
			n, dim, norms := d.u64(), d.u64(), d.u64()
			if n == 0 || n > math.MaxInt32 || dim == 0 || dim > 1<<20 {
				return nil, fmt.Errorf("snap: implausible dataset shape %d x %d", n, dim)
			}
			if norms != 0 && norms != n {
				return nil, fmt.Errorf("snap: %d squared norms for %d points", norms, n)
			}
			if s.Metric, err = d.str(off + length); err != nil {
				return nil, fmt.Errorf("snap: dataset32 section truncated")
			}
			d.pad8()
			s.N, s.Dim = int(n), int(dim)
			body := 4 * s.N * s.Dim
			if norms != 0 {
				body = align8(body) + 8*s.N
			}
			if length != (d.off-off)+body {
				return nil, fmt.Errorf("snap: dataset32 section length %d does not match shape %d x %d", length, n, dim)
			}
			s.Coords32 = d.f32s(s.N * s.Dim)
		case kindGridRadius, kindGridRetired:
			// A retired occupancy section opens with the same f64;
			// its arrays are not read.
			if length != 8 && (kind == kindGridRadius || length < 8) {
				return nil, fmt.Errorf("snap: section kind %d is %d bytes, not a grid radius", kind, length)
			}
			if s.GridRadius != nil {
				return nil, fmt.Errorf("snap: more than one grid radius section")
			}
			r := d.f64()
			s.GridRadius = &r
		case kindGraph:
			graphSec, graphLen = d, length
		case kindLabels:
			labelSec, labelLen = d, length
		case kindWALEpoch:
			if length != 8 {
				return nil, fmt.Errorf("snap: walepoch section length %d, want 8", length)
			}
			s.WALEpoch = d.u64()
			if s.WALEpoch == 0 {
				return nil, fmt.Errorf("snap: walepoch section with epoch 0 (durable checkpoints start at 1)")
			}
		default:
			// Unknown kind: a forward-compatible addition, or the
			// retired kind 5; skip.
		}
	}
	if s.Coords == nil && s.Coords32 == nil {
		return nil, fmt.Errorf("snap: no dataset section")
	}
	if s.Metric == "" {
		return nil, fmt.Errorf("snap: dataset section names no metric")
	}

	if d := graphSec; d != nil {
		if graphLen < 24 {
			return nil, fmt.Errorf("snap: graph section truncated")
		}
		radius := d.f64()
		n64, edges64 := d.u64(), d.u64()
		if n64 != uint64(s.N) {
			return nil, fmt.Errorf("snap: graph section is for %d points, dataset has %d", n64, s.N)
		}
		if edges64 > math.MaxInt32 {
			return nil, fmt.Errorf("snap: implausible edge count %d", edges64)
		}
		edges := int(edges64)
		if graphLen != align8(24+4*(s.N+1))+16*edges {
			return nil, fmt.Errorf("snap: graph section length %d does not match %d points / %d edges", graphLen, s.N, edges)
		}
		c := &grid.CSR{}
		c.Offsets = d.i32s(s.N + 1)
		d.pad8()
		c.Nbrs = d.neighbors(edges)
		if int(c.Offsets[s.N]) != edges || c.Offsets[0] != 0 {
			return nil, fmt.Errorf("snap: graph offsets do not span the %d packed neighbours", edges)
		}
		s.GraphRadius = radius
		s.Graph = c
	}
	if d := labelSec; d != nil {
		if s.Labels, err = decodeLabels(d, labelLen, s.N); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// decodeLabels decodes a labels section of length bytes for n points.
// The count must equal n and the lengths must sum to exactly the bytes
// that follow them, both checked before anything is allocated, so the
// allocation is bounded by the section: one copy of the label bytes and
// one string header per point, each of which owns at least four bytes
// of the section.
func decodeLabels(d *dec, length, n int) ([]string, error) {
	if length < 8 {
		return nil, fmt.Errorf("snap: labels section truncated")
	}
	if count := d.u64(); count != uint64(n) {
		return nil, fmt.Errorf("snap: labels section is for %d points, dataset has %d", count, n)
	}
	body := length - 8
	if body/4 < n {
		return nil, fmt.Errorf("snap: labels section length %d cannot hold %d label lengths", length, n)
	}
	body -= 4 * n
	lens := d.off
	total := 0
	for i := 0; i < n; i++ {
		total += int(binary.LittleEndian.Uint32(d.b[lens+4*i:]))
		if total > body {
			return nil, fmt.Errorf("snap: label lengths overrun the labels section")
		}
	}
	if total != body {
		return nil, fmt.Errorf("snap: labels section length %d does not match its label lengths", length)
	}
	at := lens + 4*n
	blob := string(d.b[at : at+total])
	labels := make([]string, n)
	off := 0
	for i := range labels {
		l := int(binary.LittleEndian.Uint32(d.b[lens+4*i:]))
		labels[i] = blob[off : off+l]
		off += l
	}
	return labels, nil
}
