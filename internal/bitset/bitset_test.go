package bitset

import (
	"math/rand/v2"
	"testing"
)

func TestBasicOps(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		s := New(n)
		if s.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, s.Len())
		}
		if !s.None() || s.Count() != 0 {
			t.Fatalf("n=%d: fresh set not empty", n)
		}
		for i := 0; i < n; i++ {
			if s.Test(i) {
				t.Fatalf("n=%d: bit %d set in fresh set", n, i)
			}
		}
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Fill count=%d", n, s.Count())
		}
		if n > 0 {
			s.Clear(0)
			s.Clear(n - 1)
			want := n - 2
			if n == 1 {
				want = 0
			}
			if s.Count() != want {
				t.Fatalf("n=%d: after clears count=%d want %d", n, s.Count(), want)
			}
		}
	}
}

// TestMirrorsBoolSlice drives a random operation sequence against a plain
// []bool reference.
func TestMirrorsBoolSlice(t *testing.T) {
	const n = 257
	rng := rand.New(rand.NewPCG(1, 2))
	ref := make([]bool, n)
	s := New(n)
	for step := 0; step < 5000; step++ {
		i := rng.IntN(n)
		switch rng.IntN(3) {
		case 0:
			ref[i] = true
			s.Set(i)
		case 1:
			ref[i] = false
			s.Clear(i)
		default:
			if s.Test(i) != ref[i] {
				t.Fatalf("step %d: Test(%d)=%v want %v", step, i, s.Test(i), ref[i])
			}
		}
	}
	count := 0
	for i, v := range ref {
		if v != s.Test(i) {
			t.Fatalf("final mismatch at %d", i)
		}
		if v {
			count++
		}
	}
	if s.Count() != count {
		t.Fatalf("Count=%d want %d", s.Count(), count)
	}
}

func TestResetReuses(t *testing.T) {
	s := New(512)
	s.Fill()
	words := &s.words[0]
	s.Reset(100)
	if &s.words[0] != words {
		t.Fatal("Reset reallocated although capacity sufficed")
	}
	if !s.None() {
		t.Fatal("Reset left bits set")
	}
	s.Reset(4096)
	if s.Count() != 0 || s.Len() != 4096 {
		t.Fatal("grow Reset broken")
	}
}
