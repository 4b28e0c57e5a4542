package grid

import (
	"math/rand"
	"testing"

	"github.com/discdiversity/disc/internal/object"
)

// bruteComponents labels components by union-find over every point pair
// within r, then renumbers canonically (ascending min member).
func bruteComponents(flat *object.FlatDataset, r float64) []int32 {
	n := flat.Len()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	m := flat.Metric()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.Dist(flat.Point(i), flat.Point(j)) <= r {
				parent[find(i)] = find(j)
			}
		}
	}
	label := make([]int32, n)
	next := int32(0)
	rename := map[int]int32{}
	for i := 0; i < n; i++ {
		root := find(i)
		l, ok := rename[root]
		if !ok {
			l = next
			rename[root] = l
			next++
		}
		label[i] = l
	}
	return label
}

// TestComponentsMatchBruteForce: CSR labeling must reproduce the
// union-find reference across dimensionalities, metrics and radii —
// including query radii strictly below the join radius, where rows must
// be distance-filtered.
func TestComponentsMatchBruteForce(t *testing.T) {
	metrics := []object.Metric{object.Euclidean{}, object.Manhattan{}, object.Chebyshev{}}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		dim := 1 + trial%4
		m := metrics[trial%len(metrics)]
		n := 80 + rng.Intn(160)
		flat := randomFlat(t, n, dim, m, int64(300+trial))
		joinR := 0.05 + rng.Float64()*0.15
		g, err := Build(flat, joinR)
		if err != nil {
			t.Fatal(err)
		}
		csr, _, err := Join(g, joinR, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []float64{joinR, joinR / 2} {
			got := ComponentsOfCSR(csr, n, r)
			want := bruteComponents(flat, r)
			for id := range want {
				if got.Label[id] != want[id] {
					t.Fatalf("trial=%d r=%g: point %d labeled %d, want %d", trial, r, id, got.Label[id], want[id])
				}
			}
			if err := got.Validate(csr, r); err != nil {
				t.Fatalf("trial=%d r=%g: %v", trial, r, err)
			}
		}
	}
}

// TestComponentsIndexInvariants: the member index must partition the id
// range, list every component's members ascending, agree with the label
// array, and number components by ascending minimum member id.
func TestComponentsIndexInvariants(t *testing.T) {
	flat := randomFlat(t, 240, 2, object.Euclidean{}, 31)
	const r = 0.05
	g, err := Build(flat, r)
	if err != nil {
		t.Fatal(err)
	}
	csr, _, err := Join(g, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp := ComponentsOfCSR(csr, flat.Len(), r)
	if cp.Count < 2 {
		t.Fatalf("degenerate decomposition (%d components); pick a smaller radius", cp.Count)
	}
	if cp.Offsets[0] != 0 || int(cp.Offsets[cp.Count]) != flat.Len() {
		t.Fatalf("offsets do not span the id range")
	}
	prevMin := int32(-1)
	seen := 0
	for c := 0; c < cp.Count; c++ {
		members := cp.MemberIDs(c)
		if len(members) == 0 {
			t.Fatalf("component %d is empty", c)
		}
		if members[0] <= prevMin {
			t.Fatalf("component %d min member %d is not above component %d's %d", c, members[0], c-1, prevMin)
		}
		prevMin = members[0]
		prev := int32(-1)
		for _, id := range members {
			if id <= prev {
				t.Fatalf("component %d members are not ascending", c)
			}
			prev = id
			if cp.Label[id] != int32(c) {
				t.Fatalf("point %d listed in component %d but labeled %d", id, c, cp.Label[id])
			}
			seen++
		}
	}
	if seen != flat.Len() {
		t.Fatalf("index lists %d members for %d points", seen, flat.Len())
	}
	if cp.Largest() <= 0 || cp.Largest() > flat.Len() {
		t.Fatalf("implausible largest component %d", cp.Largest())
	}
}

// TestComponentsFromLabelsRoundTrip: reassembling from a computed label
// array must reproduce the decomposition exactly, and every class of
// tampering must be rejected.
func TestComponentsFromLabelsRoundTrip(t *testing.T) {
	flat := randomFlat(t, 200, 2, object.Euclidean{}, 37)
	const r = 0.06
	g, err := Build(flat, r)
	if err != nil {
		t.Fatal(err)
	}
	csr, _, err := Join(g, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ComponentsOfCSR(csr, flat.Len(), r)
	got, err := ComponentsFromLabels(want.Label, want.Count)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count {
		t.Fatalf("count %d, want %d", got.Count, want.Count)
	}
	for id := range want.Label {
		if got.Label[id] != want.Label[id] {
			t.Fatalf("label of %d drifted", id)
		}
	}
	for c := 0; c <= want.Count; c++ {
		if got.Offsets[c] != want.Offsets[c] {
			t.Fatalf("offset of %d drifted", c)
		}
	}
	for i := range want.Members {
		if got.Members[i] != want.Members[i] {
			t.Fatalf("member slot %d drifted", i)
		}
	}
	if err := got.Validate(csr, r); err != nil {
		t.Fatal(err)
	}

	tamper := func(name string, mutate func([]int32) ([]int32, int)) {
		labels := append([]int32(nil), want.Label...)
		labels, count := mutate(labels)
		if _, err := ComponentsFromLabels(labels, count); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	tamper("out-of-range label", func(l []int32) ([]int32, int) {
		l[5] = int32(want.Count)
		return l, want.Count
	})
	tamper("negative label", func(l []int32) ([]int32, int) {
		l[0] = -1
		return l, want.Count
	})
	tamper("non-canonical numbering", func(l []int32) ([]int32, int) {
		// Swap the numbers of the first two components: point 0 must
		// carry label 0.
		for i := range l {
			switch l[i] {
			case 0:
				l[i] = 1
			case 1:
				l[i] = 0
			}
		}
		return l, want.Count
	})
	tamper("overdeclared count", func(l []int32) ([]int32, int) {
		return l, want.Count + 1
	})
	tamper("empty labels", func(l []int32) ([]int32, int) {
		return nil, 1
	})

	// A cross-component edge — labels that split a true component —
	// must fail Validate.
	if want.Count < 2 {
		t.Fatalf("degenerate decomposition (%d components); pick a smaller radius", want.Count)
	}
	labels := append([]int32(nil), want.Label...)
	big := -1
	for c := 0; c < want.Count; c++ {
		if want.Size(c) >= 2 {
			big = c
			break
		}
	}
	if big < 0 {
		t.Fatalf("no multi-member component to split")
	}
	// Relabeling a non-minimum member of a multi-member component breaks
	// at least one of its edges.
	victim := want.MemberIDs(big)[want.Size(big)-1]
	labels[victim] = (labels[victim] + 1) % int32(want.Count)
	split := &Components{Count: want.Count, Label: labels}
	split.buildIndex()
	if err := split.Validate(csr, r); err == nil {
		t.Errorf("split component accepted by Validate")
	}

	// Labels that merge two singleton components — canonical, no
	// cross-class edge, but an edge-less point inside a multi-member
	// class — must fail Validate too: the pair fast path depends on
	// two-member classes being genuine connected pairs.
	singles := make([]int, 0, 2)
	for c := 0; c < want.Count && len(singles) < 2; c++ {
		if want.Size(c) == 1 {
			singles = append(singles, c)
		}
	}
	if len(singles) < 2 {
		t.Fatalf("no two singleton components to merge")
	}
	merged := append([]int32(nil), want.Label...)
	for i, l := range merged {
		switch {
		case l == int32(singles[1]):
			merged[i] = int32(singles[0])
		case l > int32(singles[1]):
			merged[i]--
		}
	}
	cpm, err := ComponentsFromLabels(merged, want.Count-1)
	if err != nil {
		t.Fatalf("merged singleton labels rejected structurally: %v", err)
	}
	if err := cpm.Validate(csr, r); err == nil {
		t.Errorf("merged singleton components accepted by Validate")
	}
}
