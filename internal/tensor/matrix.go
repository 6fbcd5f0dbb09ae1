// Package tensor provides the dense linear-algebra substrate used by the
// Optimus-CC reproduction: matrices and vectors of float64 with the
// operations needed for MLP language-model training (matmul, transposes,
// element-wise maps, reductions) and for PowerSGD-style low-rank
// compression (Gram–Schmidt orthogonalization, Frobenius norms).
//
// Everything is row-major and backed by a single []float64 so matrices can
// be flattened, sliced, and communicated as contiguous payloads — the same
// property the paper relies on when it ships gradient tensors between
// pipeline stages and data-parallel groups.
//
// The matmul kernels (MatMulInto, MatMulATInto, MatMulATAddInto,
// MatMulBTInto) are register-blocked, and they keep one contract: every
// output element is the float64 sum over k, in ascending k order from +0,
// of its products. Results are therefore bit-identical to a naive triple
// loop for finite inputs. The kernels do not skip zero operands, so a
// 0·±Inf product yields NaN.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix;
// use New or FromSlice to build a usable one.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

// Slice returns a flat-range view of elements [lo, hi) as a 1×(hi−lo)
// matrix sharing m's backing array (not a copy). Views are what the
// collective runtime's reduce-scatter chunks are made of: writes through a
// view are writes to m. A view must not be Put into a Pool — it does not
// own its storage. Panics when the range is out of bounds.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	v := &Matrix{}
	m.SliceInto(v, lo, hi)
	return v
}

// SliceInto repoints view at elements [lo, hi) of m without allocating,
// for hot paths that reuse one view header across many chunks. The
// previous contents of the header are irrelevant; its storage (if any) is
// not touched. Panics when the range is out of bounds.
func (m *Matrix) SliceInto(view *Matrix, lo, hi int) {
	if lo < 0 || hi < lo || hi > len(m.Data) {
		panic(fmt.Sprintf("tensor: Slice [%d,%d) outside matrix of %d elements", lo, hi, len(m.Data)))
	}
	view.Rows, view.Cols = 1, hi-lo
	view.Data = m.Data[lo:hi:hi]
}

// NumElements returns Rows*Cols.
func (m *Matrix) NumElements() int { return m.Rows * m.Cols }

// SizeBytes returns the wire size of the dense payload assuming elemBytes
// bytes per element (the paper's setting is fp16, i.e. 2).
func (m *Matrix) SizeBytes(elemBytes int) int64 {
	return int64(m.NumElements()) * int64(elemBytes)
}

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add sets m = m + o and returns m.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.mustSameShape(o, "Add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
	return m
}

// Sub sets m = m - o and returns m.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	m.mustSameShape(o, "Sub")
	for i, v := range o.Data {
		m.Data[i] -= v
	}
	return m
}

// Scale sets m = s*m and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaled sets m = m + s*o and returns m (axpy).
func (m *Matrix) AddScaled(s float64, o *Matrix) *Matrix {
	m.mustSameShape(o, "AddScaled")
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
	return m
}

// Hadamard sets m = m ⊙ o (element-wise product) and returns m.
func (m *Matrix) Hadamard(o *Matrix) *Matrix {
	m.mustSameShape(o, "Hadamard")
	for i, v := range o.Data {
		m.Data[i] *= v
	}
	return m
}

// Apply sets every element to f(element) and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	TInto(out, m)
	return out
}

// TInto writes the transpose of src into dst without allocating. dst must
// be src.Cols × src.Rows and must not alias src.
func TInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			dst.Data[j*src.Rows+i] = v
		}
	}
}

// AddScaledInto computes dst = a + s*b without allocating (fused axpy into
// a destination). dst may alias a or b; shapes must match.
func AddScaledInto(dst, a *Matrix, s float64, b *Matrix) {
	dst.mustSameShape(a, "AddScaledInto")
	dst.mustSameShape(b, "AddScaledInto")
	bd := b.Data
	for i, av := range a.Data {
		dst.Data[i] = av + s*bd[i]
	}
}

// FrobeniusNorm returns sqrt(Σ x²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// AbsMax returns max |x| over all elements, or 0 for an empty matrix.
func (m *Matrix) AbsMax() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Sum returns Σ x.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty matrix.
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// Equal reports whether m and o have identical shape and elements within
// tol (absolute). Elements that compare equal always match, so +Inf
// matches +Inf and +0 matches −0. A NaN matches only a NaN in the same
// position, whatever tol is; so Equal(o, 0) is an exact comparison that
// no NaN slips through.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		w := o.Data[i]
		if v == w {
			continue
		}
		if math.IsNaN(v) || math.IsNaN(w) {
			if math.IsNaN(v) && math.IsNaN(w) {
				continue
			}
			return false
		}
		if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Dot returns the vector dot product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns a·b / (‖a‖‖b‖), or 0 when either vector is zero.
// Fig. 11 of the paper uses this to show compression errors are independent
// of activation differences.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
