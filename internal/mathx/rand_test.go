package mathx

import "testing"

func TestNewRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestPermAndShuffle(t *testing.T) {
	rng := NewRand(1)
	p := Perm(rng, 10)
	seen := make(map[int]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(rng, idx)
	sum := 0
	for _, v := range idx {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", idx)
	}
}

func TestUniformRange(t *testing.T) {
	rng := NewRand(3)
	for i := 0; i < 1000; i++ {
		v := Uniform(rng, -2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestChoice(t *testing.T) {
	rng := NewRand(5)
	if Choice(rng, 0) != -1 || Choice(rng, -3) != -1 {
		t.Fatal("Choice of empty should be -1")
	}
	for i := 0; i < 100; i++ {
		if c := Choice(rng, 4); c < 0 || c >= 4 {
			t.Fatalf("Choice out of range: %d", c)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := NewRand(11)
	if WeightedChoice(rng, nil) != -1 {
		t.Fatal("empty weights should be -1")
	}
	// Only index 2 has positive weight.
	for i := 0; i < 50; i++ {
		if c := WeightedChoice(rng, []float64{0, 0, 1, 0}); c != 2 {
			t.Fatalf("deterministic weighted choice = %d, want 2", c)
		}
	}
	// All-zero weights fall back to uniform, still in range.
	for i := 0; i < 50; i++ {
		if c := WeightedChoice(rng, []float64{0, 0, 0}); c < 0 || c > 2 {
			t.Fatalf("fallback choice out of range: %d", c)
		}
	}
	// Heavier weight wins more often.
	counts := [2]int{}
	for i := 0; i < 5000; i++ {
		counts[WeightedChoice(rng, []float64{1, 9})]++
	}
	if counts[1] < counts[0]*3 {
		t.Fatalf("weighted sampling skew wrong: %v", counts)
	}
}
