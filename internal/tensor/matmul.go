package tensor

import "fmt"

// Register-blocked matmul micro-kernels.
//
// Each kernel computes a tileR×tileC block of output elements at a time and
// keeps the block's partial sums in local variables, which the compiler
// holds in registers, while it sweeps the reduction index k in ascending
// order. Each a and b element loaded in the sweep then feeds several
// multiply-adds, and no partial sum is loaded or stored per k. The 2×4
// tile needs 8 accumulators plus 6 operands, which fits amd64's 16 vector
// registers; a 4×4 tile's 16 accumulators alone would fill them.
//
// The contract every kernel keeps: each output element is produced by
// exactly the float64 sequence
//
//	s := +0; for k := 0; k < K; k++ { s += x(i,k) * y(k,j) }
//
// Tiling only changes which elements are computed together and in which
// order tiles are visited, never an element's own summation order. Where a
// kernel splits k into panels, a partial sum parks in dst between panels,
// and a float64 round trip through memory is exact. So the results are
// bit-identical to a naive triple loop. The kernels do not skip zero
// operands: for finite inputs this changes no bit (an accumulator that
// starts at +0 never becomes −0, so adding ±0 leaves it unchanged), but
// 0·±Inf contributes NaN where a zero-skipping loop would not.
const (
	// tileR×tileC is the register tile of every kernel. Rows left over
	// below a whole tile (at most one) and columns left over to the right
	// of the last whole tile (at most three) go through narrower edge
	// loops with the same per-element summation order.
	tileR = 2
	tileC = 4
	// panelK is the depth of the k-panels MatMulInto and MatMulATInto
	// sweep: a panelK-row panel of b stays cache-resident across all row
	// tiles, where an unsplit sweep would stream every tile's columns of
	// b from further out in the hierarchy.
	panelK = 128
	// atDstResident is the dst footprint (bytes) up to which MatMulATInto
	// keeps the whole dst in cache across each k-panel (the common
	// PowerSGD case, where dst is a skinny m×rank factor). Above it, dst
	// is split into blockIAT-row panels, each finished over all of k
	// before the next starts.
	atDstResident = 1 << 19
	blockIAT      = 64
)

// MatMul returns a new matrix a×b. Panics if inner dimensions differ.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a×b without allocating. dst must be a.Rows ×
// b.Cols and must not alias a or b. See the kernel contract above: exact
// for finite inputs, and 0·±Inf yields NaN.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if a.Cols == 0 {
		dst.Zero()
		return
	}
	for k0 := 0; k0 < a.Cols; k0 += panelK {
		matMulPanel(dst, a, b, k0, min(k0+panelK, a.Cols))
	}
}

// matMulPanel adds a[:, k0:k1]·b[k0:k1, :] to dst; with k0 == 0 the sums
// start at +0 and dst's previous contents are ignored.
func matMulPanel(dst, a, b *Matrix, k0, k1 int) {
	kn, p := a.Cols, b.Cols
	ad, bd, dd := a.Data, b.Data, dst.Data
	load := k0 > 0
	i := 0
	for ; i+tileR <= a.Rows; i += tileR {
		a0 := ad[i*kn+k0 : i*kn+k1]
		a1 := ad[(i+1)*kn+k0 : (i+1)*kn+k1]
		d0 := dd[i*p : (i+1)*p]
		d1 := dd[(i+1)*p : (i+2)*p]
		j := 0
		for ; j+tileC <= p; j += tileC {
			var c tile
			if load {
				c.load(d0[j:], d1[j:])
			}
			c.mm(a0, a1, bd[k0*p+j:], p)
			c.store(d0[j:], d1[j:])
		}
		for ; j < p; j++ {
			var c0, c1 float64
			if load {
				c0, c1 = d0[j], d1[j]
			}
			o := k0*p + j
			for k, x0 := range a0 {
				y := bd[o]
				c0 += x0 * y
				c1 += a1[k] * y
				o += p
			}
			d0[j], d1[j] = c0, c1
		}
	}
	for ; i < a.Rows; i++ {
		a0 := ad[i*kn+k0 : i*kn+k1]
		d0 := dd[i*p : (i+1)*p]
		for j := range d0 {
			var c float64
			if load {
				c = d0[j]
			}
			o := k0*p + j
			for _, x := range a0 {
				c += x * bd[o]
				o += p
			}
			d0[j] = c
		}
	}
}

// MatMulATInto computes dst = aᵀ×b without materializing aᵀ.
// a is n×m, b is n×p, dst must be m×p. Same contract as MatMulInto.
func MatMulATInto(dst, a, b *Matrix) {
	mustATShapes(dst, a, b, "MatMulATInto")
	if a.Rows == 0 {
		dst.Zero()
		return
	}
	rows := atPanelRows(dst)
	for ib := 0; ib < a.Cols; ib += rows {
		iEnd := min(ib+rows, a.Cols)
		for k0 := 0; k0 < a.Rows; k0 += panelK {
			matMulATPanel(dst, a, b, ib, iEnd, k0, min(k0+panelK, a.Rows), false)
		}
	}
}

// MatMulATAddInto adds aᵀ×b to dst without materializing aᵀ or the
// product. a is n×m, b is n×p, dst must be m×p. Each element's products
// are summed from +0 in ascending k, exactly as MatMulATInto sums them,
// and only the finished sum is added to dst. The result is therefore
// bit-identical to MatMulATInto into a scratch matrix followed by
// dst.Add(scratch): a backward pass's gradient accumulation, without the
// scratch. The sweep is not split into k-panels, since a partial sum
// cannot park in dst.
func MatMulATAddInto(dst, a, b *Matrix) {
	mustATShapes(dst, a, b, "MatMulATAddInto")
	if a.Rows == 0 {
		return // an empty sum leaves dst as it is
	}
	rows := atPanelRows(dst)
	for ib := 0; ib < a.Cols; ib += rows {
		matMulATPanel(dst, a, b, ib, min(ib+rows, a.Cols), 0, a.Rows, true)
	}
}

func mustATShapes(dst, a, b *Matrix, op string) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAT inner mismatch %dx%d^T * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s dst %dx%d want %dx%d", op, dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
}

// atPanelRows applies the atDstResident rule: the whole dst is one row
// panel when it fits, blockIAT-row panels otherwise.
func atPanelRows(dst *Matrix) int {
	if int64(dst.Rows)*int64(dst.Cols)*8 > atDstResident {
		return blockIAT
	}
	return dst.Rows
}

// matMulATPanel computes, for dst rows [i0, i1), the sums of
// a[k0:k1, i0:i1]ᵀ·b[k0:k1, :]. With k0 > 0 they continue the partial
// sums parked in dst; with k0 == 0 they start at +0. add (only with
// k0 == 0) adds the finished sums to dst instead of storing them.
func matMulATPanel(dst, a, b *Matrix, i0, i1, k0, k1 int, add bool) {
	m, p := a.Cols, b.Cols
	ad, bd, dd := a.Data, b.Data, dst.Data
	load := k0 > 0
	i := i0
	for ; i+tileR <= i1; i += tileR {
		d0 := dd[i*p : (i+1)*p]
		d1 := dd[(i+1)*p : (i+2)*p]
		j := 0
		for ; j+tileC <= p; j += tileC {
			var c tile
			if load {
				c.load(d0[j:], d1[j:])
			}
			c.at(ad[k0*m+i:], bd[k0*p+j:], m, p, k1-k0)
			if add {
				c.addTo(d0[j:], d1[j:])
			} else {
				c.store(d0[j:], d1[j:])
			}
		}
		for ; j < p; j++ {
			var c0, c1 float64
			if load {
				c0, c1 = d0[j], d1[j]
			}
			ao, bo := k0*m+i, k0*p+j
			for k := k0; k < k1; k++ {
				x := ad[ao : ao+2 : ao+2]
				y := bd[bo]
				c0 += x[0] * y
				c1 += x[1] * y
				ao += m
				bo += p
			}
			if add {
				d0[j] += c0
				d1[j] += c1
			} else {
				d0[j], d1[j] = c0, c1
			}
		}
	}
	for ; i < i1; i++ {
		d0 := dd[i*p : (i+1)*p]
		for j := range d0 {
			var c float64
			if load {
				c = d0[j]
			}
			ao, bo := k0*m+i, k0*p+j
			for k := k0; k < k1; k++ {
				c += ad[ao] * bd[bo]
				ao += m
				bo += p
			}
			if add {
				d0[j] += c
			} else {
				d0[j] = c
			}
		}
	}
}

// MatMulBTInto computes dst = a×bᵀ without materializing bᵀ.
// a is n×m, b is p×m, dst must be n×p. Same contract as MatMulInto.
//
// Every operand row is contiguous along k here, so the kernel needs no
// k-panels: each tile streams two rows of a against four rows of b and
// writes its finished dot products once.
func MatMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBT inner mismatch %dx%d * %dx%d^T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBTInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	kn, p := a.Cols, b.Rows
	ad, bd, dd := a.Data, b.Data, dst.Data
	// The tile sweep stays inline here: with PowerSGD's reconstruction,
	// k is the rank (a handful), and a call per tile would cost more than
	// the sweep itself.
	i := 0
	for ; i+tileR <= a.Rows; i += tileR {
		a0 := ad[i*kn : (i+1)*kn]
		a1 := ad[(i+1)*kn : (i+2)*kn]
		a1 = a1[:len(a0)]
		d0 := dd[i*p : (i+1)*p]
		d1 := dd[(i+1)*p : (i+2)*p]
		j := 0
		for ; j+tileC <= p; j += tileC {
			b0 := bd[j*kn : (j+1)*kn]
			b0 = b0[:len(a0)]
			b1 := bd[(j+1)*kn : (j+2)*kn]
			b1 = b1[:len(a0)]
			b2 := bd[(j+2)*kn : (j+3)*kn]
			b2 = b2[:len(a0)]
			b3 := bd[(j+3)*kn : (j+4)*kn]
			b3 = b3[:len(a0)]
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				y0, y1, y2, y3 := b0[k], b1[k], b2[k], b3[k]
				c00 += x0 * y0
				c01 += x0 * y1
				c02 += x0 * y2
				c03 += x0 * y3
				c10 += x1 * y0
				c11 += x1 * y1
				c12 += x1 * y2
				c13 += x1 * y3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
		}
		for ; j < p; j++ {
			b0 := bd[j*kn : (j+1)*kn]
			b0 = b0[:len(a0)]
			var c0, c1 float64
			for k, x0 := range a0 {
				y := b0[k]
				c0 += x0 * y
				c1 += a1[k] * y
			}
			d0[j], d1[j] = c0, c1
		}
	}
	for ; i < a.Rows; i++ {
		a0 := ad[i*kn : (i+1)*kn]
		d0 := dd[i*p : (i+1)*p]
		for j := range d0 {
			b0 := bd[j*kn : (j+1)*kn]
			b0 = b0[:len(a0)]
			var c float64
			for k, x := range a0 {
				c += x * b0[k]
			}
			d0[j] = c
		}
	}
}

// tile is one tileR×tileC block of partial sums, row-major. Its sweeps
// (mm, at) are functions of their own so that the compiler keeps the
// eight sums and six operands in registers for the whole k sweep, with
// none of the caller's loop state competing for them; inlined into the
// panel loops, they spilled sums and operands to the stack every k.
type tile [tileR * tileC]float64

// load reads the block's parked sums from rows d0 and d1 (each sliced
// to start at the block's first column).
func (c *tile) load(d0, d1 []float64) {
	copy(c[:tileC], d0[:tileC])
	copy(c[tileC:], d1[:tileC])
}

// store writes the block back to rows d0 and d1.
func (c *tile) store(d0, d1 []float64) {
	copy(d0[:tileC], c[:tileC])
	copy(d1[:tileC], c[tileC:])
}

// addTo adds the block to rows d0 and d1.
func (c *tile) addTo(d0, d1 []float64) {
	d0, d1 = d0[:tileC], d1[:tileC]
	for q := range d0 {
		d0[q] += c[q]
		d1[q] += c[tileC+q]
	}
}

// mm sweeps k over a0 and a1 (the block's two rows of a, cut to the
// k-range), against b, which starts at the block's first column in the
// range's first row of a matrix with row stride p.
func (c *tile) mm(a0, a1, b []float64, p int) {
	c00, c01, c02, c03 := c[0], c[1], c[2], c[3]
	c10, c11, c12, c13 := c[4], c[5], c[6], c[7]
	a1 = a1[:len(a0)]
	o := 0
	for k, x0 := range a0 {
		x1 := a1[k]
		y := b[o : o+4 : o+4]
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		c00 += x0 * y0
		c01 += x0 * y1
		c02 += x0 * y2
		c03 += x0 * y3
		c10 += x1 * y0
		c11 += x1 * y1
		c12 += x1 * y2
		c13 += x1 * y3
		o += p
	}
	*c = tile{c00, c01, c02, c03, c10, c11, c12, c13}
}

// at sweeps n values of k: a starts at the block's first dst row (a
// column of a) and b at its first column, both in the range's first row;
// m and p are their row strides.
func (c *tile) at(a, b []float64, m, p, n int) {
	c00, c01, c02, c03 := c[0], c[1], c[2], c[3]
	c10, c11, c12, c13 := c[4], c[5], c[6], c[7]
	ao, bo := 0, 0
	for k := 0; k < n; k++ {
		x := a[ao : ao+2 : ao+2]
		y := b[bo : bo+4 : bo+4]
		x0, x1 := x[0], x[1]
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		c00 += x0 * y0
		c01 += x0 * y1
		c02 += x0 * y2
		c03 += x0 * y3
		c10 += x1 * y0
		c11 += x1 * y1
		c12 += x1 * y2
		c13 += x1 * y3
		ao += m
		bo += p
	}
	*c = tile{c00, c01, c02, c03, c10, c11, c12, c13}
}
