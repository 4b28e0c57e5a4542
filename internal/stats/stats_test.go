package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/discdiversity/disc/internal/object"
)

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int
		want float64
	}{
		{nil, nil, 0},
		{[]int{1}, []int{1}, 0},
		{[]int{1, 2, 3}, []int{2, 3, 4}, 0.5},
		{[]int{1}, []int{2}, 1},
		{[]int{1, 1, 2}, []int{2}, 0.5}, // duplicates collapse
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v)=%g want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardQuickProperties(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ai := toInts(a)
		bi := toInts(b)
		d := Jaccard(ai, bi)
		if d < 0 || d > 1 {
			return false
		}
		if Jaccard(ai, ai) != 0 {
			return false
		}
		return Jaccard(ai, bi) == Jaccard(bi, ai)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func toInts(xs []uint8) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

func TestCoverageFraction(t *testing.T) {
	pts := []object.Point{{0, 0}, {0.05, 0}, {1, 1}}
	m := object.Euclidean{}
	if got := CoverageFraction(pts, m, []int{0}, 0.1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("got %g", got)
	}
	if got := CoverageFraction(pts, m, []int{0, 2}, 0.1); got != 1 {
		t.Errorf("got %g", got)
	}
	if got := CoverageFraction(nil, m, nil, 0.1); got != 1 {
		t.Errorf("empty: %g", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", "algo", "r=0.1", "r=0.2")
	tab.AddRow("Basic-DisC", 3839, 1360)
	tab.AddRow("Greedy-DisC", 3260.0, 1120.5)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Title", "Basic-DisC", "3839", "1120.5", "algo"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines", len(lines))
	}
}

func TestSeriesTable(t *testing.T) {
	a := &Series{Name: "alg-a"}
	b := &Series{Name: "alg-b"}
	for i := 1; i <= 3; i++ {
		a.Add(float64(i), float64(i*10))
		b.Add(float64(i), float64(i*100))
	}
	tab := SeriesTable("fig", "r", a, b)
	if len(tab.Rows) != 3 || tab.Headers[1] != "alg-a" {
		t.Errorf("table %+v", tab)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "300") {
		t.Errorf("missing value:\n%s", buf.String())
	}
	if empty := SeriesTable("e", "x"); len(empty.Rows) != 0 {
		t.Error("empty series table should have no rows")
	}
}
