package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// buildSnapshot assembles a realistic snapshot over random clustered
// points: dataset always, the grid radius and coverage-graph CSR when
// withGrid/withGraph are set (the CSR joined by the real grid code so
// the layout is genuine).
func buildSnapshot(t *testing.T, n, dim int, r float64, seed uint64, withGrid, withGraph bool) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed))
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	m := object.Euclidean{}
	flat, err := object.Flatten(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{
		Index:       "coverage-graph",
		Parallelism: 2,
		Capacity:    64,
		Seed:        seed ^ 0xabcdef,
		Metric:      m.Name(),
		N:           n,
		Dim:         dim,
		Coords:      flat.Coords(),
	}
	if withGrid || withGraph {
		g, err := grid.Build(flat, r)
		if err != nil {
			t.Fatal(err)
		}
		s.GridRadius = &r
		if withGraph {
			csr, _, err := grid.Join(g, r, 2)
			if err != nil {
				t.Fatal(err)
			}
			s.GraphRadius = r
			s.Graph = csr
		}
	}
	return s
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripByteIdentity: save → load → save must reproduce the file
// byte for byte, for every section combination and several shapes — the
// property that makes snapshots content-addressable and diffable.
func TestRoundTripByteIdentity(t *testing.T) {
	cases := []struct {
		n, dim              int
		r                   float64
		withGrid, withGraph bool
	}{
		{50, 2, 0.2, false, false},
		{120, 2, 0.15, true, false},
		{120, 2, 0.15, true, true},
		{200, 3, 0.25, true, true},
		{77, 1, 0.1, true, true},
		{300, 5, 0.4, true, true},
	}
	for i, tc := range cases {
		s := buildSnapshot(t, tc.n, tc.dim, tc.r, uint64(100+i), tc.withGrid, tc.withGraph)
		first := encode(t, s)
		loaded, err := Read(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		second := encode(t, loaded)
		if !bytes.Equal(first, second) {
			t.Fatalf("case %d: save→load→save is not byte-identical (%d vs %d bytes)", i, len(first), len(second))
		}
		if loaded.Index != s.Index || loaded.Parallelism != s.Parallelism ||
			loaded.Capacity != s.Capacity || loaded.Seed != s.Seed ||
			loaded.Metric != s.Metric || loaded.N != s.N || loaded.Dim != s.Dim {
			t.Fatalf("case %d: metadata drifted: %+v", i, loaded)
		}
		if (loaded.GridRadius != nil) != tc.withGrid || (loaded.Graph != nil) != tc.withGraph {
			t.Fatalf("case %d: section presence drifted", i)
		}
		if tc.withGrid && *loaded.GridRadius != tc.r {
			t.Fatalf("case %d: grid radius %g, want %g", i, *loaded.GridRadius, tc.r)
		}
		if tc.withGraph && loaded.GraphRadius != s.GraphRadius {
			t.Fatalf("case %d: graph radius %g, want %g", i, loaded.GraphRadius, s.GraphRadius)
		}
	}
}

// TestRoundTripValues: decoded arrays must be element-identical to what
// was written (the byte-identity test covers re-encoding; this pins the
// decoded in-memory values themselves).
func TestRoundTripValues(t *testing.T) {
	s := buildSnapshot(t, 150, 2, 0.12, 7, true, true)
	loaded, err := Read(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Coords {
		if loaded.Coords[i] != v {
			t.Fatalf("coord %d: %g != %g", i, loaded.Coords[i], v)
		}
	}
	if *loaded.GridRadius != *s.GridRadius {
		t.Fatalf("grid radius drifted")
	}
	for i, v := range s.Graph.Offsets {
		if loaded.Graph.Offsets[i] != v {
			t.Fatalf("offset %d drifted", i)
		}
	}
	for i, v := range s.Graph.Nbrs {
		if loaded.Graph.Nbrs[i] != v {
			t.Fatalf("neighbour %d drifted", i)
		}
	}
}

// TestRejectBadMagic: any corruption of the magic must be rejected.
func TestRejectBadMagic(t *testing.T) {
	data := encode(t, buildSnapshot(t, 60, 2, 0.2, 3, true, true))
	for i := 0; i < 8; i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x01
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupted magic byte %d: Decode = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestRejectBadVersion: future or zero versions must be rejected.
func TestRejectBadVersion(t *testing.T) {
	data := encode(t, buildSnapshot(t, 60, 2, 0.2, 3, false, false))
	for _, v := range []byte{0, 2, 0xff} {
		bad := append([]byte(nil), data...)
		bad[8] = v
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: Decode = %v, want ErrCorrupt", v, err)
		}
	}
}

// TestRejectTruncation: every truncation point, a truncated header
// included, must error as corruption, never panic or silently succeed —
// the property a crashed writer or torn copy relies on.
func TestRejectTruncation(t *testing.T) {
	data := encode(t, buildSnapshot(t, 80, 2, 0.2, 5, true, true))
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d of %d bytes: Decode = %v, want ErrCorrupt", cut, len(data), err)
		}
	}
}

// failingReader fails every read, as a disk returning EIO does.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, syscall.EIO }

// TestReadErrorIsNotCorruption: a failing reader is an I/O fault, which
// callers retry; it must not be classified as corrupt bytes.
func TestReadErrorIsNotCorruption(t *testing.T) {
	_, err := Read(failingReader{})
	if !errors.Is(err, syscall.EIO) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read over a failing reader = %v, want EIO and not ErrCorrupt", err)
	}
}

// TestRejectFlippedBytes: flipping any single bit of the section table
// or of a section payload (which includes every CRC-protected region)
// must be rejected as corruption by a checksum (table CRC, section CRC)
// or structural check. Padding bytes
// between sections are the only bytes outside the checksummed regions;
// flips there must not corrupt the decoded snapshot.
func TestRejectFlippedBytes(t *testing.T) {
	s := buildSnapshot(t, 64, 2, 0.2, 9, true, true)
	data := encode(t, s)
	reference := encode(t, s)

	// Identify payload/table coverage: everything from the header to the
	// end is either table, payload, or inter-section padding.
	for i := 8; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		loaded, err := Decode(bad)
		if errors.Is(err, ErrCorrupt) {
			continue // rejected: the common, desired outcome
		}
		if err != nil {
			t.Fatalf("flip at byte %d: Decode = %v, want ErrCorrupt", i, err)
		}
		// The flip survived: it must have hit padding, and the decoded
		// snapshot must still re-encode to the pristine file.
		if got := encode(t, loaded); !bytes.Equal(got, reference) {
			t.Fatalf("flip at byte %d accepted AND altered the decoded snapshot", i)
		}
	}
}

// TestRejectShapeLies: structurally valid checksums around inconsistent
// declared shapes must still be rejected (the CRC protects bits, the
// size equations protect logic).
func TestRejectShapeLies(t *testing.T) {
	s := buildSnapshot(t, 64, 2, 0.2, 11, true, true)
	// Graph offsets that do not span the packed array.
	s.Graph.Offsets[len(s.Graph.Offsets)-1]++
	var buf bytes.Buffer
	if err := Write(&buf, s); err == nil {
		t.Fatal("writer accepted offsets that do not span the neighbour array")
	}
}

// TestWriterValidation: the writer must refuse snapshots whose shape
// invariants do not hold, so corrupt files cannot be produced in the
// first place.
func TestWriterValidation(t *testing.T) {
	good := buildSnapshot(t, 40, 2, 0.2, 13, true, true)
	cases := []func(*Snapshot){
		func(s *Snapshot) { s.Metric = "" },
		func(s *Snapshot) { s.N = 0 },
		func(s *Snapshot) { s.Coords = s.Coords[:len(s.Coords)-1] },
		func(s *Snapshot) { s.Graph.Offsets = s.Graph.Offsets[:5] },
	}
	for i, mutate := range cases {
		bad := *good
		graphCopy := *good.Graph
		bad.Graph = &graphCopy
		mutate(&bad)
		if err := Write(&bytes.Buffer{}, &bad); err == nil {
			t.Fatalf("case %d: writer accepted an inconsistent snapshot", i)
		}
	}
}

// TestComponentsSectionConsistency: a snapshot written while the
// writer still persisted component labels (kind 5, now retired) must
// decode with the section skipped — but only after its checksum
// passes — and re-encode without it. The bytes are the committed
// graph-components-labels FuzzDecode corpus entry, which Write produced
// with the section.
func TestComponentsSectionConsistency(t *testing.T) {
	data := corpusEntry(t, "graph-components-labels")
	const retiredComponents = 5
	if !hasSection(data, retiredComponents) {
		t.Fatal("corpus entry carries no components section")
	}

	s, err := Decode(append([]byte(nil), data...))
	if err != nil {
		t.Fatalf("snapshot with a components section rejected: %v", err)
	}
	if s.Graph == nil || s.GridRadius == nil || s.N == 0 {
		t.Fatalf("sections lost alongside the skipped one: %+v", s)
	}
	again := encode(t, s)
	if hasSection(again, retiredComponents) {
		t.Fatal("re-encoding wrote a components section")
	}
	if len(again) >= len(data) {
		t.Fatalf("re-encoding is %d bytes, the original %d", len(again), len(data))
	}

	// Its payload is no longer read (a resealed edit decodes), but its
	// checksum is still checked.
	bad := append([]byte(nil), data...)
	patchSection(t, bad, retiredComponents, func(p []byte) { p[len(p)-1] ^= 0x01 })
	if _, err := Decode(bad); err != nil {
		t.Fatalf("resealed components section rejected: %v", err)
	}
	flipSection(bad, retiredComponents)
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("components section with a bad checksum: err = %v, want ErrCorrupt", err)
	}
}

// corpusEntry returns the bytes of a committed FuzzDecode corpus entry.
func corpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecode/" + name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 2)
	body := strings.TrimSuffix(strings.TrimSpace(lines[1]), ")")
	quoted, ok := strings.CutPrefix(body, "[]byte(")
	if !ok {
		t.Fatalf("corpus entry is not a []byte value: %.40q", body)
	}
	unquoted, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(unquoted)
}

// TestRetiredGridSection: a snapshot written while the writer still
// persisted the grid occupancy (kind 3, now retired) decodes with only
// the section's leading radius read, and re-encodes it as a gridradius
// section (kind 9). The files are the committed FuzzDecode corpus
// entries that Write produced with the occupancy.
func TestRetiredGridSection(t *testing.T) {
	for _, name := range []string{"grid-retired", "graph-components-labels"} {
		data := corpusEntry(t, name)
		if !hasSection(data, kindGridRetired) {
			t.Fatalf("%s: corpus entry carries no occupancy section", name)
		}
		want := math.Float64frombits(binary.LittleEndian.Uint64(data[sectionOffset(data, kindGridRetired):]))
		s, err := Decode(append([]byte(nil), data...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.GridRadius == nil || *s.GridRadius != want {
			t.Fatalf("%s: grid radius %v, want %g", name, s.GridRadius, want)
		}
		again := encode(t, s)
		if hasSection(again, kindGridRetired) || !hasSection(again, kindGridRadius) {
			t.Fatalf("%s: re-encoding did not replace the occupancy with a grid radius", name)
		}
		if len(again) >= len(data) {
			t.Fatalf("%s: re-encoding is %d bytes, the original %d", name, len(again), len(data))
		}
	}
}

// TestGridRadiusSectionShape: a gridradius section is exactly one f64,
// and a file may not carry it twice — neither as two kind-9 sections
// nor as kind 9 alongside a retired kind 3.
func TestGridRadiusSectionShape(t *testing.T) {
	data := encode(t, buildSnapshot(t, 40, 2, 0.2, 31, true, true))
	if !hasSection(data, kindGridRadius) {
		t.Fatal("no gridradius section written")
	}
	// Retag the graph section as a gridradius section: 9 bytes or more,
	// not 8.
	long := append([]byte(nil), data...)
	retag(long, kindGraph, kindGridRadius)
	if _, err := Decode(long); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized gridradius section: err = %v, want ErrCorrupt", err)
	}
	// Retag the graph section as a retired occupancy: a second radius.
	both := append([]byte(nil), data...)
	retag(both, kindGraph, kindGridRetired)
	if _, err := Decode(both); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gridradius plus occupancy: err = %v, want ErrCorrupt", err)
	}
	// A retired occupancy too short to hold its radius.
	short := append([]byte(nil), data...)
	retag(short, kindGridRadius, kindGridRetired)
	patchLength(short, kindGridRetired, 4)
	if _, err := Decode(short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("4-byte occupancy section: err = %v, want ErrCorrupt", err)
	}
}

// sectionEntry returns the offset of the section-table entry of the
// first section of kind, or -1.
func sectionEntry(data []byte, kind uint32) int {
	nsec := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < nsec; i++ {
		if entry := headerSize + entrySize*i; binary.LittleEndian.Uint32(data[entry:]) == kind {
			return entry
		}
	}
	return -1
}

// sectionOffset returns the payload offset of the first section of kind.
func sectionOffset(data []byte, kind uint32) int {
	return int(binary.LittleEndian.Uint64(data[sectionEntry(data, kind)+8:]))
}

// retag relabels the first section of kind from as kind to and reseals
// the table.
func retag(data []byte, from, to uint32) {
	binary.LittleEndian.PutUint32(data[sectionEntry(data, from):], to)
	retable(data)
}

// patchLength shortens the first section of kind to length bytes,
// resealing its checksum and the table's.
func patchLength(data []byte, kind uint32, length int) {
	entry := sectionEntry(data, kind)
	binary.LittleEndian.PutUint64(data[entry+16:], uint64(length))
	reseal(data, entry)
}

// hasSection reports whether data's section table lists kind.
func hasSection(data []byte, kind uint32) bool { return sectionEntry(data, kind) >= 0 }

// flipSection flips one payload byte of the first section of kind
// without resealing its checksum.
func flipSection(data []byte, kind uint32) { data[sectionOffset(data, kind)] ^= 0x01 }

// TestUnknownSectionSkipped: a reader must skip section kinds it does
// not know — the forward-compatibility contract that lets future
// writers add sections without a version bump.
func TestUnknownSectionSkipped(t *testing.T) {
	data := encode(t, buildSnapshot(t, 50, 2, 0.2, 17, false, false))
	// Retag the meta section (kind 1, first table entry) as an unknown
	// kind and fix up the table CRC.
	bad := append([]byte(nil), data...)
	bad[headerSize] = 0x7f // kind low byte
	retable(bad)
	loaded, err := Read(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("unknown section kind rejected: %v", err)
	}
	if loaded.Index != "" || loaded.Parallelism != 0 {
		t.Fatalf("skipped section leaked values: %+v", loaded)
	}
	if loaded.N != 50 {
		t.Fatalf("dataset section lost alongside the skipped one")
	}
}

// retable recomputes the header's section-table CRC after a deliberate
// table edit.
func retable(data []byte) {
	nsec := int(binary.LittleEndian.Uint32(data[12:]))
	end := headerSize + entrySize*nsec
	binary.LittleEndian.PutUint32(data[16:], crc32.Checksum(data[headerSize:end], castagnoli))
}

// buildSnapshot32 assembles a float32-precision snapshot over random
// points under m, with the optional flat-joined coverage graph (no grid
// section — the flat substrate has none).
func buildSnapshot32(t *testing.T, n, dim int, r float64, seed uint64, m object.Metric, withGraph bool) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed))
	pts := make([]object.Point, n)
	for i := range pts {
		p := make(object.Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	flat, err := object.Flatten32(pts, m)
	if err != nil {
		t.Fatal(err)
	}
	stride := flat.Stride32()
	src := flat.Coords32()
	c := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		copy(c[i*dim:(i+1)*dim], src[i*stride:i*stride+dim])
	}
	s := &Snapshot{
		Index:       "coverage-graph",
		Parallelism: 2,
		Capacity:    64,
		Seed:        seed ^ 0xabcdef,
		Metric:      m.Name(),
		N:           n,
		Dim:         dim,
		Coords32:    c,
	}
	if withGraph {
		csr, _, err := grid.FlatJoin(flat, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.GraphRadius = r
		s.Graph = csr
	}
	return s
}

// TestRoundTripFloat32: the dataset32 section must round-trip
// byte-identically and element-identically, under Lp and embedding
// metrics and with a flat-joined graph section that has no grid
// alongside it.
func TestRoundTripFloat32(t *testing.T) {
	cases := []struct {
		dim       int
		m         object.Metric
		withGraph bool
	}{
		{3, object.Euclidean{}, false},
		{7, object.Euclidean{}, true},
		{7, object.Cosine{}, true},
		{5, object.DotProduct{}, false},
	}
	for i, tc := range cases {
		s := buildSnapshot32(t, 90, tc.dim, 0.35, uint64(400+i), tc.m, tc.withGraph)
		first := encode(t, s)
		loaded, err := Read(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if !bytes.Equal(first, encode(t, loaded)) {
			t.Fatalf("case %d: save→load→save is not byte-identical", i)
		}
		if loaded.Coords != nil {
			t.Fatalf("case %d: float64 coordinates materialised from a float32 snapshot", i)
		}
		if len(loaded.Coords32) != len(s.Coords32) {
			t.Fatalf("case %d: %d coords32, want %d", i, len(loaded.Coords32), len(s.Coords32))
		}
		for j, v := range s.Coords32 {
			if loaded.Coords32[j] != v {
				t.Fatalf("case %d: coord32 %d drifted", i, j)
			}
		}
		if (loaded.Graph != nil) != tc.withGraph {
			t.Fatalf("case %d: graph presence drifted", i)
		}
		if tc.withGraph && loaded.GridRadius != nil {
			t.Fatalf("case %d: grid section appeared from nowhere", i)
		}
	}
}

// TestFloat32WriterValidation: the writer must refuse shapes the
// dataset32 section cannot represent.
func TestFloat32WriterValidation(t *testing.T) {
	good := buildSnapshot32(t, 40, 4, 0.3, 21, object.Cosine{}, false)
	cases := []func(*Snapshot){
		func(s *Snapshot) { s.Coords = make([]float64, s.N*s.Dim) }, // both precisions at once
		func(s *Snapshot) { s.Coords32 = s.Coords32[:len(s.Coords32)-1] },
		func(s *Snapshot) { s.Coords32 = nil }, // no coordinates at all
	}
	for i, mutate := range cases {
		bad := *good
		mutate(&bad)
		if err := Write(&bytes.Buffer{}, &bad); err == nil {
			t.Fatalf("case %d: writer accepted an inconsistent float32 snapshot", i)
		}
	}
}

// TestFloat32LegacyNorms: a dataset32 section from a writer that still
// stored the squared norms decodes with them bounds-checked and
// skipped, and re-encodes with a norm count of 0 and without them. A
// norm count other than 0 or n, or one the section length does not
// match, is corruption. The bytes are the committed float32-cosine-graph
// FuzzDecode corpus entry, which Write produced with the norms.
func TestFloat32LegacyNorms(t *testing.T) {
	data := corpusEntry(t, "float32-cosine-graph")
	normCount := func(data []byte) uint64 {
		return binary.LittleEndian.Uint64(data[sectionOffset(data, kindDataset32)+16:])
	}
	s, err := Decode(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if normCount(data) != uint64(s.N) {
		t.Fatalf("corpus entry stores %d norms for %d points", normCount(data), s.N)
	}
	again := encode(t, s)
	if normCount(again) != 0 {
		t.Fatalf("re-encoding stores %d norms", normCount(again))
	}
	if want := len(data) - 8*s.N; len(again) > want {
		t.Fatalf("re-encoding is %d bytes, want at most %d", len(again), want)
	}
	for name, count := range map[string]uint64{"count n-1": uint64(s.N - 1), "count 0": 0, "huge count": 1 << 40} {
		bad := append([]byte(nil), data...)
		patchSection(t, bad, kindDataset32, func(p []byte) { binary.LittleEndian.PutUint64(p[16:], count) })
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: decode returned %v, want corruption", name, err)
		}
	}
}

// TestFloat32UnknownToOldReader: a reader that does not know the
// dataset32 kind (simulated by retagging it as an unknown kind) must
// fail with a clean "no dataset section" error rather than misread the
// snapshot — the forward-compatibility property that let kind 6 ship
// without a version bump.
func TestFloat32UnknownToOldReader(t *testing.T) {
	data := encode(t, buildSnapshot32(t, 30, 3, 0.3, 23, object.Euclidean{}, false))
	nsec := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < nsec; i++ {
		entry := headerSize + entrySize*i
		if binary.LittleEndian.Uint32(data[entry:]) != kindDataset32 {
			continue
		}
		binary.LittleEndian.PutUint32(data[entry:], 0x7f)
		retable(data)
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Fatal("snapshot without a recognised dataset section accepted")
		}
		return
	}
	t.Fatal("no dataset32 section found")
}

// TestRejectTwoDatasetSections: a snapshot carrying both dataset
// precisions must be refused at the writer (a file with both kinds is
// not constructible through the public API, and the reader additionally
// rejects a second dataset section of either kind).
func TestRejectTwoDatasetSections(t *testing.T) {
	merged := *buildSnapshot(t, 30, 2, 0.2, 29, false, false)
	merged.Coords32 = buildSnapshot32(t, 30, 2, 0.2, 29, object.Euclidean{}, false).Coords32
	if err := Write(&bytes.Buffer{}, &merged); err == nil {
		t.Fatal("writer accepted both dataset precisions")
	}
}

// TestLabelsSection: labels (empty and multi-byte ones included) survive
// the round trip byte for byte; the writer refuses a label count other
// than n, and the reader refuses a section whose count or lengths do not
// fit it, before allocating anything.
func TestLabelsSection(t *testing.T) {
	s := buildSnapshot(t, 5, 2, 0.2, 23, true, true)
	s.Labels = []string{"Αθήνα", "", "b", "Θεσσαλονίκη", "e"}
	data := encode(t, s)
	loaded, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded.Labels, s.Labels) {
		t.Fatalf("labels drifted: %q", loaded.Labels)
	}
	if !bytes.Equal(encode(t, loaded), data) {
		t.Fatal("save→load→save with labels is not byte-identical")
	}
	if noLabels := encode(t, buildSnapshot(t, 5, 2, 0.2, 23, true, true)); len(noLabels) >= len(data) {
		t.Fatal("labels section not written")
	}

	bad := *s
	bad.Labels = s.Labels[:4]
	if err := Write(&bytes.Buffer{}, &bad); err == nil {
		t.Fatal("writer accepted 4 labels for 5 points")
	}

	for name, edit := range map[string]func(p []byte){
		"count above n":   func(p []byte) { binary.LittleEndian.PutUint64(p, 6) },
		"count below n":   func(p []byte) { binary.LittleEndian.PutUint64(p, 4) },
		"huge count":      func(p []byte) { binary.LittleEndian.PutUint64(p, 1<<40) },
		"length overruns": func(p []byte) { binary.LittleEndian.PutUint32(p[8:], 1<<31) },
		"length short":    func(p []byte) { binary.LittleEndian.PutUint32(p[8+4*3:], 1) },
	} {
		tampered := append([]byte(nil), data...)
		patchSection(t, tampered, kindLabels, edit)
		if _, err := Decode(tampered); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: decode returned %v, want corruption", name, err)
		}
	}
}

// patchSection applies edit to the payload of the first section of the
// given kind and fixes up its checksum and the table's, producing a
// structurally valid file that lies about its contents.
func patchSection(t *testing.T, data []byte, kind uint32, edit func(payload []byte)) {
	t.Helper()
	entry := sectionEntry(data, kind)
	if entry < 0 {
		t.Fatalf("no section of kind %d", kind)
	}
	off := int(binary.LittleEndian.Uint64(data[entry+8:]))
	edit(data[off : off+int(binary.LittleEndian.Uint64(data[entry+16:]))])
	reseal(data, entry)
}

// reseal recomputes the payload checksum of the section at table entry
// and the table's.
func reseal(data []byte, entry int) {
	off := binary.LittleEndian.Uint64(data[entry+8:])
	length := binary.LittleEndian.Uint64(data[entry+16:])
	binary.LittleEndian.PutUint32(data[entry+4:], crc32.Checksum(data[off:off+length], castagnoli))
	retable(data)
}
