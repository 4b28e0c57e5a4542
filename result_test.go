package disc

import (
	"reflect"
	"testing"
)

// retained sums the bytes that v's slices and strings hold, by capacity,
// following pointers but not into the Diversifier every result shares,
// and records the capacity of the longest slice.
func retained(v reflect.Value, bytes, longest *int) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && v.Type() != reflect.TypeOf((*Diversifier)(nil)) {
			retained(v.Elem(), bytes, longest)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			retained(v.Field(i), bytes, longest)
		}
	case reflect.Slice:
		*bytes += v.Cap() * int(v.Type().Elem().Size())
		*longest = max(*longest, v.Cap())
	case reflect.String:
		*bytes += v.Len()
	}
}

// TestStoredResultRetainsOnlyIDs: at the explore workload's shape (5k
// clustered points, r = 0.01, coverage graph) a result and its zooms
// keep O(|S|) bytes — their ids and name — and no slice of length n.
func TestStoredResultRetainsOnlyIDs(t *testing.T) {
	const n = 5000
	ds, err := ClusteredDataset(n, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(ds.Points, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := d.Select(0.01)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.ZoomIn(sel, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.ZoomOut(sel, 0.02, ZoomOutGreedyLargest)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{sel, in, out} {
		var bytes, longest int
		retained(reflect.ValueOf(res), &bytes, &longest)
		if longest >= n {
			t.Errorf("%s: keeps a slice of %d entries for %d objects", res.Algorithm(), longest, n)
		}
		if limit := 8*res.Size() + 64; bytes > limit {
			t.Errorf("%s: keeps %d bytes for %d ids, want at most %d", res.Algorithm(), bytes, res.Size(), limit)
		}
	}
}
