package disc_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	disc "github.com/discdiversity/disc"
)

func clusteredPoints(t *testing.T, n int, seed uint64) []disc.Point {
	t.Helper()
	ds, err := disc.ClusteredDataset(n, 2, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Points
}

// TestSelectModeProperty: across random clustered workloads, every
// index, every Greedy-DisC algorithm and several radii, Select must (a)
// verify as r-DisC diverse, (b) pick the same ids in the same order on
// every index, and (c) run the adjacency greedy exactly on the coverage
// graph (its Algorithm names the run) and the global one elsewhere —
// lazy-white, which the adjacency cannot serve, runs global everywhere.
// The deprecated WithSelectMode changes nothing.
func TestSelectModeProperty(t *testing.T) {
	algorithms := []disc.Algorithm{
		disc.AlgorithmGreedy, disc.AlgorithmGreedyWhite,
		disc.AlgorithmLazyGrey, disc.AlgorithmLazyWhite,
	}
	noops := [][]disc.SelectOption{
		{disc.WithSelectMode(disc.SelectGlobal)},
		{disc.WithSelectMode(disc.SelectComponents)},
		{disc.WithSelectMode(disc.SelectMode(99))},
	}
	rng := rand.New(rand.NewPCG(61, 61))
	for trial := 0; trial < 2; trial++ {
		pts := clusteredPoints(t, 300+trial*150, uint64(400+trial))
		r := 0.02 + rng.Float64()*0.04
		want := map[disc.Algorithm][]int{}
		for _, name := range disc.SupportedIndexNames() {
			d, err := disc.New(pts, disc.WithIndexName(name))
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range algorithms {
				res, err := d.Select(r, disc.WithAlgorithm(alg))
				if err != nil {
					t.Fatalf("%s/%v: %v", name, alg, err)
				}
				if err := d.Verify(res); err != nil {
					t.Errorf("%s/%v: %v", name, alg, err)
				}
				if ref, ok := want[alg]; !ok {
					want[alg] = res.IDs()
				} else if !slices.Equal(ref, res.IDs()) {
					t.Errorf("%s/%v: selection differs from %s's", name, alg, disc.SupportedIndexNames()[0])
				}
				adjacency := d.Indexed() == disc.IndexCoverageGraph && alg != disc.AlgorithmLazyWhite
				if got := strings.Contains(res.Algorithm(), "Components"); got != adjacency {
					t.Errorf("%s/%v: ran %q, want the adjacency run %v", name, alg, res.Algorithm(), adjacency)
				}
				for _, opts := range noops {
					again, err := d.Select(r, append([]disc.SelectOption{disc.WithAlgorithm(alg)}, opts...)...)
					if err != nil {
						t.Fatalf("%s/%v: %v", name, alg, err)
					}
					if again.Algorithm() != res.Algorithm() || !slices.Equal(again.IDs(), res.IDs()) {
						t.Errorf("%s/%v: a deprecated option changed the selection", name, alg)
					}
				}
			}
		}
	}
}

// componentsFixture is a coverage-graph snapshot (200 clustered
// points, ceiling 0.03) written while snapshots still carried a
// components section (kind 5, now retired), with the selections the
// writer's version made from it: per radius and algorithm, the global
// mode's ids in pick order and the component mode's in the component
// order it then emitted.
type componentsFixture struct {
	data []byte
	sels []struct {
		Radius     float64 `json:"radius"`
		Algorithm  string  `json:"algorithm"`
		Global     []int   `json:"global"`
		Components []int   `json:"components"`
	}
}

// retiredComponentsKind is the section kind the fixture carries.
const retiredComponentsKind = 5

func loadComponentsFixture(t *testing.T) *componentsFixture {
	t.Helper()
	var fx componentsFixture
	var err error
	if fx.data, err = os.ReadFile("testdata/components-section.discsnap"); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile("testdata/components-section.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js, &fx.sels); err != nil {
		t.Fatal(err)
	}
	if sectionAt(fx.data, retiredComponentsKind) < 0 {
		t.Fatal("fixture carries no components section")
	}
	return &fx
}

// sectionAt returns the offset of the section-table entry of kind in a
// .discsnap stream, or -1 when the table lists none.
func sectionAt(data []byte, kind uint32) int {
	nsec := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < nsec; i++ {
		if entry := 20 + 24*i; binary.LittleEndian.Uint32(data[entry:]) == kind {
			return entry
		}
	}
	return -1
}

// sortedInts returns an ascending copy of ids.
func sortedInts(ids []int) []int {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// algorithmNamed maps an Algorithm.String name back to the algorithm.
func algorithmNamed(t *testing.T, name string) disc.Algorithm {
	t.Helper()
	for _, a := range []disc.Algorithm{disc.AlgorithmGreedy, disc.AlgorithmGreedyWhite, disc.AlgorithmLazyGrey} {
		if a.String() == name {
			return a
		}
	}
	t.Fatalf("unknown algorithm %q", name)
	return 0
}

// TestSnapshotCarriesComponents: a snapshot with a components section
// still loads, and selects what its writer's version selected — the
// global mode's ids in its pick order, which are the ids the component
// mode emitted in component order. Saving it again writes no components
// section, and the re-saved file selects the same.
func TestSnapshotCarriesComponents(t *testing.T) {
	fx := loadComponentsFixture(t)
	warm, err := disc.LoadDiversifier(bytes.NewReader(fx.data))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := warm.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if sectionAt(again.Bytes(), retiredComponentsKind) >= 0 {
		t.Fatal("re-saved snapshot carries a components section")
	}
	resaved, err := disc.LoadDiversifier(bytes.NewReader(again.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*disc.Diversifier{warm, resaved} {
		for _, sel := range fx.sels {
			alg := algorithmNamed(t, sel.Algorithm)
			res, err := d.Select(sel.Radius, disc.WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.IDs(), sel.Global) {
				t.Fatalf("r=%g %s: selects %v, recorded %v", sel.Radius, sel.Algorithm, res.IDs(), sel.Global)
			}
			if !slices.Equal(res.SortedIDs(), sortedInts(sel.Components)) {
				t.Fatalf("r=%g %s: component ids differ from the recorded component selection", sel.Radius, sel.Algorithm)
			}
		}
	}
}

// TestSnapshotTamperedComponentsRejected: the retired components section
// is skipped, not trusted blindly — a flipped byte in it fails the
// section checksum and the load, while the same edit with the checksum
// resealed loads and selects as before (the labels are never read).
func TestSnapshotTamperedComponentsRejected(t *testing.T) {
	fx := loadComponentsFixture(t)
	entry := sectionAt(fx.data, retiredComponentsKind)
	off := int(binary.LittleEndian.Uint64(fx.data[entry+8:]))
	length := int(binary.LittleEndian.Uint64(fx.data[entry+16:]))

	bad := slices.Clone(fx.data)
	bad[off+length-1] ^= 0x01 // the last label
	if _, err := disc.LoadDiversifier(bytes.NewReader(bad)); err == nil {
		t.Fatal("components section with a bad checksum accepted")
	}

	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(bad[entry+4:], crc32.Checksum(bad[off:off+length], castagnoli))
	nsec := int(binary.LittleEndian.Uint32(bad[12:]))
	binary.LittleEndian.PutUint32(bad[16:], crc32.Checksum(bad[20:20+24*nsec], castagnoli))
	d, err := disc.LoadDiversifier(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("resealed components section rejected: %v", err)
	}
	sel := fx.sels[0]
	res, err := d.Select(sel.Radius, disc.WithAlgorithm(algorithmNamed(t, sel.Algorithm)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.IDs(), sel.Global) {
		t.Fatalf("resealed snapshot selects %v, recorded %v", res.IDs(), sel.Global)
	}
}
