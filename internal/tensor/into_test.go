package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Reference kernels: straightforward triple loops accumulating over k in
// ascending order — the exact summation order the blocked kernels promise
// to preserve. Equality below is exact (tol 0), which is the point: tiling
// must not change a single bit.

func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func refMatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(k, i)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func refMatMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matmulShapes cross the kernels' tile and panel edges: 1×1, K=0 and
// K=1, row and column counts that are not multiples of the tileR×tileC
// register tile, reductions that end one short of, on and past a panelK
// boundary, and (for AT, whose dst is n×m) a dst exactly at atDstResident
// and one row past it.
var matmulShapes = []struct{ n, k, m int }{
	{1, 1, 1},
	{3, 0, 5},
	{tileR, 1, tileC},
	{3, 5, 4},
	{tileR*3 + 1, 7, tileC*5 + 3},
	{tileR, 2, tileC - 1},
	{1, 9, tileC + 2},
	{32, 48, 48},
	{32, 144, 3},
	{5, panelK - 1, 9},
	{tileR * 4, panelK, tileC * 3},
	{tileR*4 + 1, 2*panelK + 3, tileC*3 + 1},
	{256, 3, 256},
	{257, 3, 256},
}

// stale fills dst with a value no kernel output can carry over unseen, so
// the tests also check that every element is overwritten.
func stale(dst *Matrix) *Matrix {
	dst.Fill(7)
	return dst
}

func TestBlockedMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range matmulShapes {
		a := RandN(rng, sh.n, sh.k, 1)
		b := RandN(rng, sh.k, sh.m, 1)
		got := stale(New(sh.n, sh.m))
		MatMulInto(got, a, b)
		if !got.Equal(refMatMul(a, b), 0) {
			t.Fatalf("MatMulInto %dx%dx%d differs from reference", sh.n, sh.k, sh.m)
		}
	}
}

func TestBlockedMatMulATBitIdentical(t *testing.T) {
	if int64(256*256*8) != atDstResident {
		t.Fatal("matmulShapes no longer straddle atDstResident; update them")
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range matmulShapes {
		a := RandN(rng, sh.k, sh.n, 1)
		b := RandN(rng, sh.k, sh.m, 1)
		got := stale(New(sh.n, sh.m))
		MatMulATInto(got, a, b)
		want := refMatMulAT(a, b)
		if !got.Equal(want, 0) {
			t.Fatalf("MatMulATInto %dx%dx%d differs from reference", sh.n, sh.k, sh.m)
		}
		checkATAdd(t, rng, a, b, want)
	}
}

// checkATAdd checks MatMulATAddInto on a random dst against adding the
// reference product want to a copy of it.
func checkATAdd(t *testing.T, rng *rand.Rand, a, b, want *Matrix) {
	t.Helper()
	dst := fuzzOperand(rng, a.Cols, b.Cols)
	sum := dst.Clone().Add(want)
	MatMulATAddInto(dst, a, b)
	if !dst.Equal(sum, 0) {
		t.Fatalf("MatMulATAddInto %dx%d^T·%dx%d differs from dst + reference", a.Rows, a.Cols, b.Rows, b.Cols)
	}
}

func TestBlockedMatMulATLargeDstBitIdentical(t *testing.T) {
	// Force the row-panel (non-dst-resident) path: dst is 300×300 = 720KB,
	// above atDstResident, and the reduction spans two k-panels.
	if int64(300*300*8) <= atDstResident {
		t.Fatal("test shape no longer exceeds atDstResident; grow it")
	}
	rng := rand.New(rand.NewSource(43))
	a := RandN(rng, panelK+9, 300, 1)
	b := RandN(rng, panelK+9, 300, 1)
	got := stale(New(300, 300))
	MatMulATInto(got, a, b)
	want := refMatMulAT(a, b)
	if !got.Equal(want, 0) {
		t.Fatal("tiled MatMulATInto differs from reference")
	}
	checkATAdd(t, rng, a, b, want)
}

func TestBlockedMatMulBTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, sh := range matmulShapes {
		a := RandN(rng, sh.n, sh.k, 1)
		b := RandN(rng, sh.m, sh.k, 1)
		got := stale(New(sh.n, sh.m))
		MatMulBTInto(got, a, b)
		if !got.Equal(refMatMulBT(a, b), 0) {
			t.Fatalf("MatMulBTInto %dx%dx%d differs from reference", sh.n, sh.k, sh.m)
		}
	}
}

// shapeCase is one mismatched (dst, a, b) operand triple for a kernel.
type shapeCase struct {
	name      string
	dst, a, b *Matrix
}

// checkShapePanics checks that run rejects every case with a panic before
// touching dst.
func checkShapePanics(t *testing.T, run func(dst, a, b *Matrix), cases ...shapeCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stale(c.dst)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
				if !c.dst.Equal(stale(New(c.dst.Rows, c.dst.Cols)), 0) {
					t.Fatal("dst written before the shape check")
				}
			}()
			run(c.dst, c.a, c.b)
		})
	}
}

// The shape-panic tests check that each kernel rejects a mismatched inner
// dimension and a mismatched dst before touching dst.

func TestMatMulIntoShapePanics(t *testing.T) {
	checkShapePanics(t, MatMulInto,
		shapeCase{"inner", New(2, 3), New(2, 3), New(2, 3)},
		shapeCase{"dst", New(3, 3), New(2, 3), New(3, 3)})
}

func TestMatMulATIntoShapePanics(t *testing.T) {
	checkShapePanics(t, MatMulATInto,
		shapeCase{"inner", New(2, 2), New(3, 2), New(4, 2)},
		shapeCase{"dst", New(3, 2), New(4, 2), New(4, 2)})
}

func TestMatMulATAddIntoShapePanics(t *testing.T) {
	checkShapePanics(t, MatMulATAddInto,
		shapeCase{"inner", New(2, 2), New(3, 2), New(4, 2)},
		shapeCase{"dst", New(3, 2), New(4, 2), New(4, 2)})
}

func TestMatMulBTIntoShapePanics(t *testing.T) {
	checkShapePanics(t, MatMulBTInto,
		shapeCase{"inner", New(2, 2), New(2, 3), New(2, 4)},
		shapeCase{"dst", New(2, 3), New(2, 4), New(2, 4)})
}

// fuzzOperand fills an r×c matrix from rng with finite values, about one
// in four of them an exact +0 or −0, so the kernels' dropped zero skip is
// exercised against the zero-skipping oracles.
func fuzzOperand(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20)
		}
	}
	return m
}

// FuzzMatMulKernels checks every kernel against its oracle at tolerance 0
// on fuzzed shapes (the reduction reaching past two k-panels) and seeded
// finite values.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint8(1), uint16(1), uint8(1), int64(1))
	f.Add(uint8(7), uint16(0), uint8(3), int64(2))
	f.Add(uint8(32), uint16(48), uint8(48), int64(3))
	f.Add(uint8(9), uint16(2*panelK+1), uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, n8 uint8, k16 uint16, m8 uint8, seed int64) {
		n, k, m := int(n8%40)+1, int(k16)%(2*panelK+8), int(m8%40)+1
		rng := rand.New(rand.NewSource(seed))
		a, b := fuzzOperand(rng, n, k), fuzzOperand(rng, k, m)
		got := stale(New(n, m))
		MatMulInto(got, a, b)
		if !got.Equal(refMatMul(a, b), 0) {
			t.Fatalf("MatMulInto %dx%dx%d differs from reference", n, k, m)
		}
		at := a.T()
		got = stale(New(n, m))
		MatMulATInto(got, at, b)
		want := refMatMulAT(at, b)
		if !got.Equal(want, 0) {
			t.Fatalf("MatMulATInto %dx%dx%d differs from reference", n, k, m)
		}
		checkATAdd(t, rng, at, b, want)
		bt := b.T()
		got = stale(New(n, m))
		MatMulBTInto(got, a, bt)
		if !got.Equal(refMatMulBT(a, bt), 0) {
			t.Fatalf("MatMulBTInto %dx%dx%d differs from reference", n, k, m)
		}
	})
}

func TestTInto(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := New(3, 2)
	TInto(dst, m)
	if !dst.Equal(m.T(), 0) {
		t.Fatalf("TInto mismatch: %v", dst.Data)
	}
}

func TestTIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TInto(New(2, 3), New(2, 3))
}

func TestAddScaledInto(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	dst := New(1, 3)
	AddScaledInto(dst, a, 0.5, b)
	want := []float64{6, 12, 18}
	for i, v := range dst.Data {
		if v != want[i] {
			t.Fatalf("AddScaledInto: got %v want %v", dst.Data, want)
		}
	}
	// Must match the allocating path bit-for-bit.
	alloc := a.Clone().AddScaled(0.5, b)
	if !dst.Equal(alloc, 0) {
		t.Fatal("AddScaledInto differs from Clone().AddScaled()")
	}
	// Aliasing dst with a is allowed.
	AddScaledInto(a, a, 0.5, b)
	if !a.Equal(alloc, 0) {
		t.Fatal("aliased AddScaledInto wrong")
	}
}

func TestRandNIntoMatchesRandN(t *testing.T) {
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	fresh := RandN(r1, 6, 7, 0.5)
	reused := New(6, 7)
	reused.Fill(99) // stale contents must be fully overwritten
	RandNInto(r2, reused, 0.5)
	if !fresh.Equal(reused, 0) {
		t.Fatal("RandNInto differs from RandN for the same seed")
	}
}

func TestMatMulIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Square, edge-tile, multi-panel and (for AT) large-dst shapes.
	for _, sh := range []struct{ n, k, m int }{
		{64, 64, 64},
		{tileR*5 + 1, 2*panelK + 3, tileC*3 + 2},
		{300, 5, 300},
	} {
		a := RandN(rng, sh.n, sh.k, 1)
		b := RandN(rng, sh.k, sh.m, 1)
		at := RandN(rng, sh.k, sh.n, 1)
		bt := RandN(rng, sh.m, sh.k, 1)
		dst := New(sh.n, sh.m)
		if n := testing.AllocsPerRun(10, func() { MatMulInto(dst, a, b) }); n != 0 {
			t.Fatalf("MatMulInto %v allocates %v per run", sh, n)
		}
		if n := testing.AllocsPerRun(10, func() { MatMulATInto(dst, at, b) }); n != 0 {
			t.Fatalf("MatMulATInto %v allocates %v per run", sh, n)
		}
		if n := testing.AllocsPerRun(10, func() { MatMulATAddInto(dst, at, b) }); n != 0 {
			t.Fatalf("MatMulATAddInto %v allocates %v per run", sh, n)
		}
		if n := testing.AllocsPerRun(10, func() { MatMulBTInto(dst, a, bt) }); n != 0 {
			t.Fatalf("MatMulBTInto %v allocates %v per run", sh, n)
		}
	}
}

// BenchmarkMatMulKernels times each kernel on the shapes the training loop
// feeds it: the hidden-48 model at micro-batch 32 (Linear forward, its two
// backward products and the tied-embedding head with vocab 32), the
// hidden-32 model at micro-batch 4, and PowerSGD's rank-4 products on a
// 512×512 gradient.
func BenchmarkMatMulKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	type op struct {
		name string
		dst  *Matrix
		run  func(dst, x, y *Matrix)
		x, y *Matrix
	}
	mm := func(name string, n, k, m int) op {
		return op{name, New(n, m), MatMulInto, RandN(rng, n, k, 1), RandN(rng, k, m, 1)}
	}
	at := func(name string, n, k, m int) op {
		return op{name, New(n, m), MatMulATInto, RandN(rng, k, n, 1), RandN(rng, k, m, 1)}
	}
	bt := func(name string, n, k, m int) op {
		return op{name, New(n, m), MatMulBTInto, RandN(rng, n, k, 1), RandN(rng, m, k, 1)}
	}
	for _, o := range []op{
		mm("MM_32x48x48", 32, 48, 48),
		mm("MM_32x144x48", 32, 144, 48),
		mm("MM_4x32x32", 4, 32, 32),
		mm("MM_512x512x4", 512, 512, 4),
		mm("MM_32x48x3", 32, 48, 3),
		at("AT_48x32x48", 48, 32, 48),
		at("AT_144x32x48", 144, 32, 48),
		at("AT_512x512x4", 512, 512, 4),
		at("AT_48x32x3", 48, 32, 3),
		at("AT_256x64x256", 256, 64, 256),
		bt("BT_32x48x48", 32, 48, 48),
		bt("BT_32x48x144", 32, 48, 144),
		bt("BT_32x48x32", 32, 48, 32),
		bt("BT_512x4x512", 512, 4, 512),
		bt("BT_32x3x48", 32, 3, 48),
	} {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.run(o.dst, o.x, o.y)
			}
		})
	}
}
