package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandNStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := RandN(rng, 200, 200, 2.0)
	mu := m.Mean()
	if math.Abs(mu) > 0.05 {
		t.Fatalf("mean %v too far from 0", mu)
	}
	va := Variance(m.Data)
	if math.Abs(va-4) > 0.2 {
		t.Fatalf("variance %v too far from 4", va)
	}
}

func TestRandUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandUniform(rng, 50, 50, 0.5)
	for _, v := range m.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("value %v outside [-0.5, 0.5]", v)
		}
	}
}

func TestXavierInitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := XavierInit(rng, 100, 100)
	bound := math.Sqrt(6.0 / 200.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("value %v outside Xavier bound %v", v, bound)
		}
	}
}

func TestGramSchmidtOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandN(rng, 20, 6, 1)
	GramSchmidt(m)
	for i := 0; i < m.Cols; i++ {
		for j := 0; j <= i; j++ {
			var dot float64
			for r := 0; r < m.Rows; r++ {
				dot += m.At(r, i) * m.At(r, j)
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("col %d·col %d = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestGramSchmidtRankDeficient(t *testing.T) {
	// Two identical columns: the second must collapse to zero, not NaN.
	m := FromSlice(3, 2, []float64{1, 1, 2, 2, 3, 3})
	GramSchmidt(m)
	for r := 0; r < 3; r++ {
		if v := m.At(r, 1); v != 0 {
			t.Fatalf("dependent column should zero out, got %v", v)
		}
		if math.IsNaN(m.At(r, 0)) {
			t.Fatal("NaN in first column")
		}
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := RandN(rng, 10, 7, 3)
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromSlice(1, 3, []float64{1000, 1000, 1000})
	SoftmaxRows(m)
	for _, v := range m.Data {
		if math.Abs(v-1.0/3.0) > 1e-9 {
			t.Fatalf("stable softmax failed: %v", m.Data)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExpRow([]float64{0, 0})
	if math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("LSE=%v want ln2", got)
	}
	big := LogSumExpRow([]float64{1e4, 1e4})
	if math.Abs(big-(1e4+math.Log(2))) > 1e-9 {
		t.Fatalf("LSE overflow handling broken: %v", big)
	}
}

func TestGELUValues(t *testing.T) {
	m := FromSlice(1, 3, []float64{0, 10, -10})
	GELU(m)
	if m.At(0, 0) != 0 {
		t.Fatalf("GELU(0)=%v", m.At(0, 0))
	}
	if math.Abs(m.At(0, 1)-10) > 1e-6 {
		t.Fatalf("GELU(10)=%v, want ≈10", m.At(0, 1))
	}
	if math.Abs(m.At(0, 2)) > 1e-6 {
		t.Fatalf("GELU(-10)=%v, want ≈0", m.At(0, 2))
	}
}

func TestGELUGradMatchesFiniteDifference(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{-2, -0.5, 0, 0.3, 1.7} {
		a := FromSlice(1, 1, []float64{x + h})
		b := FromSlice(1, 1, []float64{x - h})
		GELU(a)
		GELU(b)
		fd := (a.At(0, 0) - b.At(0, 0)) / (2 * h)
		if g := GELUGrad(x); math.Abs(g-fd) > 1e-5 {
			t.Fatalf("GELUGrad(%v)=%v, finite diff %v", x, g, fd)
		}
	}
}

// geluSpecials covers ±0, subnormal and tiny inputs (whose cube
// underflows), tanh arguments on both sides of math.Tanh's |z| = 0.625
// branch (x = 0.76 gives z ≈ 0.622, x = 0.77 gives z ≈ 0.631), saturation
// (math.Tanh's early return, and a cube that overflows), ±Inf and NaN.
var geluSpecials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 1e-300, -1e-300, 1e-160, -1e-160,
	0.76, -0.76, 0.77, -0.77, 0.5, -0.5, 1, -1, 3, -3,
	20, -20, 60, -60, 1e103, -1e103, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// checkGELUWithGrad runs GELUWithGradInto on xs and compares both outputs
// bit for bit with GELU and GELUGrad.
func checkGELUWithGrad(t *testing.T, xs []float64) {
	t.Helper()
	m := FromSlice(1, len(xs), append([]float64(nil), xs...))
	grad := stale(New(1, len(xs)))
	GELUWithGradInto(m, grad)
	want := GELU(FromSlice(1, len(xs), append([]float64(nil), xs...)))
	for i, x := range xs {
		if got, w := math.Float64bits(m.Data[i]), math.Float64bits(want.Data[i]); got != w {
			t.Errorf("GELU(%v): fused %v (%#x), GELU %v (%#x)", x, m.Data[i], got, want.Data[i], w)
		}
		wg := GELUGrad(x)
		if got, w := math.Float64bits(grad.Data[i]), math.Float64bits(wg); got != w {
			t.Errorf("GELUGrad(%v): fused %v (%#x), GELUGrad %v (%#x)", x, grad.Data[i], got, wg, w)
		}
	}
}

func TestGELUWithGradIntoMatchesOracles(t *testing.T) {
	checkGELUWithGrad(t, geluSpecials)
	// A sweep across the model's working range, straddling the tanh
	// branch point many times over.
	var sweep []float64
	for x := -6.0; x <= 6; x += 1.0 / 1024 {
		sweep = append(sweep, x)
	}
	checkGELUWithGrad(t, sweep)
}

func TestGELUWithGradIntoShapePanics(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	grad := stale(New(2, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		if m.Data[0] != 1 || m.Data[1] != 2 || !grad.Equal(stale(New(2, 1)), 0) {
			t.Fatal("operands written before the shape check")
		}
	}()
	GELUWithGradInto(m, grad)
}

// FuzzGELUWithGrad checks the fused kernel against GELU and GELUGrad bit
// for bit on arbitrary float64 inputs.
func FuzzGELUWithGrad(f *testing.F) {
	for _, x := range geluSpecials {
		f.Add(x, -x, x/3)
	}
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		checkGELUWithGrad(t, []float64{a, b, c})
	})
}

func TestArgmaxRow(t *testing.T) {
	if ArgmaxRow([]float64{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgmaxRow([]float64{-1, -5, -3}) != 0 {
		t.Fatal("argmax wrong on negatives")
	}
}

func TestClipInPlace(t *testing.T) {
	m := FromSlice(1, 3, []float64{-5, 0.5, 7})
	ClipInPlace(m, 1)
	want := []float64{-1, 0.5, 1}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("clip: got %v", m.Data)
		}
	}
}

func TestMeanVariance(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if Mean(v) != 2.5 {
		t.Fatalf("Mean=%v", Mean(v))
	}
	if Variance(v) != 1.25 {
		t.Fatalf("Variance=%v", Variance(v))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice cases wrong")
	}
}

// Property: after Gram–Schmidt, reapplying it is a no-op (projection is
// idempotent on an already-orthonormal basis).
func TestGramSchmidtIdempotentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(r8, c8 uint8) bool {
		r := int(r8%16) + 4
		c := int(c8%4) + 1
		if c > r {
			c = r
		}
		m := RandN(rng, r, c, 1)
		GramSchmidt(m)
		first := m.Clone()
		GramSchmidt(m)
		return m.Equal(first, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is invariant to a constant shift of the logits.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(shift int8) bool {
		a := RandN(rng, 2, 5, 1)
		b := a.Clone().Apply(func(x float64) float64 { return x + float64(shift) })
		SoftmaxRows(a)
		SoftmaxRows(b)
		return a.Equal(b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
