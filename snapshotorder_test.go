package disc_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/snap"
)

// Section kinds the tests below look into (internal/snap's layout).
const (
	graphKind     = 4
	dataset32Kind = 6
)

// rowsAscending reports whether every row of the snapshot's graph is
// strictly ascending by (distance, id), or by id when byID is set.
func rowsAscending(t *testing.T, data []byte, byID bool) bool {
	t.Helper()
	s, err := snap.Decode(slices.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph == nil {
		t.Fatal("snapshot carries no graph")
	}
	for id := 0; id < s.N; id++ {
		row := s.Graph.Row(id)
		for k := 1; k < len(row); k++ {
			a, b := row[k-1], row[k]
			if byID && a.ID >= b.ID || !byID && (a.Dist > b.Dist || a.Dist == b.Dist && a.ID >= b.ID) {
				return false
			}
		}
	}
	return true
}

// normCount returns the squared-norm count a dataset32 section declares.
func normCount(t *testing.T, data []byte) uint64 {
	t.Helper()
	entry := sectionAt(data, dataset32Kind)
	if entry < 0 {
		t.Fatal("snapshot carries no dataset32 section")
	}
	off := binary.LittleEndian.Uint64(data[entry+8:])
	return binary.LittleEndian.Uint64(data[off+16:])
}

// TestLegacyFloat32SnapshotLoads: testdata/legacy-float32-cosine.discsnap
// was written before static snapshots stored their graph as the engine
// holds it: a Float32 cosine coverage graph, flat-joined at 0.08 over
// 240 clustered 6-d points, with id-ordered rows and the squared norms
// in its dataset32 section. The .json beside it holds the ids its
// writer selected (Greedy-DisC and Basic-DisC at 0.08 and 0.04). It
// must still load and select exactly those ids; a re-save stores no
// norms and writes its rows by (distance, id), and selects the same.
func TestLegacyFloat32SnapshotLoads(t *testing.T) {
	data, err := os.ReadFile("testdata/legacy-float32-cosine.discsnap")
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile("testdata/legacy-float32-cosine.json")
	if err != nil {
		t.Fatal(err)
	}
	var sels []struct {
		Radius    float64 `json:"radius"`
		Algorithm string  `json:"algorithm"`
		IDs       []int   `json:"ids"`
	}
	if err := json.Unmarshal(js, &sels); err != nil {
		t.Fatal(err)
	}
	if normCount(t, data) == 0 || !rowsAscending(t, data, true) || rowsAscending(t, data, false) {
		t.Fatal("fixture does not carry norms and id-ordered rows")
	}

	warm, err := disc.LoadDiversifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := warm.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if n := normCount(t, again.Bytes()); n != 0 {
		t.Fatalf("re-saved snapshot stores %d norms", n)
	}
	if !rowsAscending(t, again.Bytes(), false) {
		t.Fatal("re-saved snapshot's rows are not ascending by (distance, id)")
	}
	resaved, err := disc.LoadDiversifier(bytes.NewReader(again.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*disc.Diversifier{warm, resaved} {
		for _, sel := range sels {
			var alg disc.Algorithm
			switch sel.Algorithm {
			case disc.AlgorithmGreedy.String():
				alg = disc.AlgorithmGreedy
			case disc.AlgorithmBasic.String():
				alg = disc.AlgorithmBasic
			default:
				t.Fatalf("unknown algorithm %q", sel.Algorithm)
			}
			res, err := d.Select(sel.Radius, disc.WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.IDs(), sel.IDs) {
				t.Fatalf("r=%g %s: selects %v, recorded %v", sel.Radius, sel.Algorithm, res.IDs(), sel.IDs)
			}
		}
	}
}

// TestSnapshotRepeatedNeighbourRefused: a saved static snapshot whose
// graph row names one neighbour twice, the second time at a larger
// distance, is refused by LoadDiversifier although the row stays
// ascending by (distance, id) and every checksum is resealed.
func TestSnapshotRepeatedNeighbourRefused(t *testing.T) {
	const r = 0.04
	d, err := disc.New(clusteredPoints(t, 400, 83), disc.WithIndex(disc.IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Prepare(r); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	s, err := snap.Decode(slices.Clone(data))
	if err != nil {
		t.Fatal(err)
	}
	row := -1
	for id := 0; id < s.N && row < 0; id++ {
		if nb := s.Graph.Row(id); len(nb) >= 2 && nb[len(nb)-1].Dist < r {
			row = id
		}
	}
	if row < 0 {
		t.Fatal("no row of degree 2 or more below the radius")
	}

	// The last entry of the row names its first neighbour again, at r.
	entry := sectionAt(data, graphKind)
	off := int(binary.LittleEndian.Uint64(data[entry+8:]))
	length := int(binary.LittleEndian.Uint64(data[entry+16:]))
	nbrs := off + (24+4*(s.N+1)+7)&^7
	last := nbrs + 16*int(s.Graph.Offsets[row+1]-1)
	bad := slices.Clone(data)
	binary.LittleEndian.PutUint64(bad[last:], uint64(s.Graph.Row(row)[0].ID))
	binary.LittleEndian.PutUint64(bad[last+8:], math.Float64bits(r))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(bad[entry+4:], crc32.Checksum(bad[off:off+length], castagnoli))
	nsec := int(binary.LittleEndian.Uint32(bad[12:]))
	binary.LittleEndian.PutUint32(bad[16:], crc32.Checksum(bad[20:20+24*nsec], castagnoli))

	if !rowsAscending(t, bad, false) {
		t.Fatal("tampered snapshot's rows are not ascending by (distance, id)")
	}
	if _, err := disc.LoadDiversifier(bytes.NewReader(bad)); err == nil {
		t.Fatal("graph row listing a neighbour twice accepted")
	}
	if _, err := disc.LoadDiversifier(bytes.NewReader(data)); err != nil {
		t.Fatalf("untampered snapshot refused: %v", err)
	}
}

// TestDiversifierSnapshotNotAnUpdater: a Diversifier's snapshot stores
// its graph rows by (distance, id), and OpenUpdater, whose live
// adjacency keeps id order, refuses it rather than adopt rows in
// another order.
func TestDiversifierSnapshotNotAnUpdater(t *testing.T) {
	const r = 0.04
	d, err := disc.New(clusteredPoints(t, 400, 89), disc.WithIndex(disc.IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Prepare(r); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "static.discsnap")
	if err := d.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	u, err := disc.OpenUpdater(path, filepath.Join(dir, "wal"), r)
	if err == nil {
		u.Close()
		t.Fatal("a Diversifier snapshot opened as an Updater")
	}
	if !strings.Contains(err.Error(), "invalid neighbour list") {
		t.Fatalf("refused for another reason: %v", err)
	}
}
