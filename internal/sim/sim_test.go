package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	c.AdvanceTo(FromSeconds(3))
	if got := c.Now().Seconds(); got != 3 {
		t.Fatalf("Now().Seconds() = %v, want 3", got)
	}
	c.AdvanceTo(FromSeconds(10))
	if got := c.Now(); got != FromSeconds(10) {
		t.Fatalf("Now() = %v, want 10s", got)
	}
}

func TestClockRewindPanics(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(FromSeconds(1))
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	c.AdvanceTo(0)
}

func TestTimeArithmetic(t *testing.T) {
	a := FromSeconds(1.5)
	b := a.Add(500 * time.Millisecond)
	if b.Seconds() != 2 {
		t.Fatalf("Add: got %v, want 2s", b)
	}
	if d := b.Sub(a); d != 500*time.Millisecond {
		t.Fatalf("Sub: got %v, want 500ms", d)
	}
	if s := b.String(); s != "2.000s" {
		t.Fatalf("String: got %q", s)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter()
	m.ChargePageRead(10)
	m.ChargePageWrite(2)
	m.ChargeTuples(1000)
	w := m.Snapshot()
	if w.PageReads != 10 || w.PageWrites != 2 || w.Tuples != 1000 {
		t.Fatalf("snapshot %+v", w)
	}
	r := CostRates{PageRead: 10 * time.Millisecond, PageWrite: 20 * time.Millisecond, Tuple: time.Microsecond}
	want := 100*time.Millisecond + 40*time.Millisecond + 1000*time.Microsecond
	if got := w.Cost(r); got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestMeterSince(t *testing.T) {
	m := NewMeter()
	m.ChargePageRead(5)
	before := m.Snapshot()
	m.ChargePageRead(3)
	m.ChargeTuples(7)
	d := m.Since(before)
	if d.PageReads != 3 || d.Tuples != 7 || d.PageWrites != 0 {
		t.Fatalf("Since = %+v", d)
	}
}

func TestWorkAddSub(t *testing.T) {
	a := Work{PageReads: 1, PageWrites: 2, Tuples: 3}
	b := Work{PageReads: 10, PageWrites: 20, Tuples: 30}
	s := a.Add(b)
	if s != (Work{11, 22, 33}) {
		t.Fatalf("Add = %+v", s)
	}
	if d := b.Sub(a); d != (Work{9, 18, 27}) {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(1)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v, want ≈1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(2)
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(math.Log(11), 1.4)
	}
	below := 0
	for _, v := range vals {
		if v < 11 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("lognormal median check: %.3f below exp(mu), want ≈0.5", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(3)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[99] {
		t.Fatalf("Zipf not monotone-skewed: c0=%d c10=%d c99=%d", counts[0], counts[10], counts[99])
	}
	// Rank 0 should have roughly n/H(100) ≈ 50000/5.19 ≈ 9600 hits.
	if counts[0] < 7000 || counts[0] > 13000 {
		t.Fatalf("Zipf rank-0 count %d outside plausible range", counts[0])
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRand(4)
	z := NewZipf(r, 5, 0.8)
	for i := 0; i < 1000; i++ {
		v := z.Next()
		if v < 0 || v >= 5 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRand(5)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}
