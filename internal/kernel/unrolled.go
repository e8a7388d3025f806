package kernel

import "repro/internal/matrix"

// Hand-unrolled microkernels. Each keeps its mr×nr accumulators in one local
// array, acc[i*nr+j]. Go never holds an array of more than one element in
// registers, so every access to acc is a load from or a store to the stack,
// and a kernel that updates acc once per multiply-add is bound by the store
// port, not the FP units. These kernels therefore take k four steps at a
// time: for each column j they hold b[k..k+3][j] in four locals and update
// every row i with
//
//	acc[i*nr+j] = acc[i*nr+j] + a[k][i]*y0 + a[k+1][i]*y1 + a[k+2][i]*y2 + a[k+3][i]*y3
//
// which is one accumulator load and store per four multiply-adds. Go
// evaluates the sum left to right and rounds every operation, so each
// accumulator still starts at 0, adds its kc products in k order one at a
// time, and is added to C once: the result is bit-identical to the one-step
// form. A one-step loop runs the kc%4 leftover steps, and the single
// write-back touches each C element once, the register-blocking contract the
// paper's Figure 5e/6e tile MM relies on.

//cake:hotpath
func kernel8x8[T matrix.Scalar](kc int, a, b []T, c []T, ldc int) {
	var acc [64]T
	k := 0
	for ; k+4 <= kc; k += 4 {
		x := (*[32]T)(a[k*8:])
		y := (*[32]T)(b[k*8:])
		for j := 0; j < 8; j++ {
			y0, y1, y2, y3 := y[j], y[8+j], y[16+j], y[24+j]
			acc[j] = acc[j] + x[0]*y0 + x[8]*y1 + x[16]*y2 + x[24]*y3
			acc[8+j] = acc[8+j] + x[1]*y0 + x[9]*y1 + x[17]*y2 + x[25]*y3
			acc[16+j] = acc[16+j] + x[2]*y0 + x[10]*y1 + x[18]*y2 + x[26]*y3
			acc[24+j] = acc[24+j] + x[3]*y0 + x[11]*y1 + x[19]*y2 + x[27]*y3
			acc[32+j] = acc[32+j] + x[4]*y0 + x[12]*y1 + x[20]*y2 + x[28]*y3
			acc[40+j] = acc[40+j] + x[5]*y0 + x[13]*y1 + x[21]*y2 + x[29]*y3
			acc[48+j] = acc[48+j] + x[6]*y0 + x[14]*y1 + x[22]*y2 + x[30]*y3
			acc[56+j] = acc[56+j] + x[7]*y0 + x[15]*y1 + x[23]*y2 + x[31]*y3
		}
	}
	for ; k < kc; k++ {
		x := (*[8]T)(a[k*8:])
		y := (*[8]T)(b[k*8:])
		y0, y1, y2, y3, y4, y5, y6, y7 := y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
		for i, xi := range x {
			r := (*[8]T)(acc[i*8:])
			r[0] += xi * y0
			r[1] += xi * y1
			r[2] += xi * y2
			r[3] += xi * y3
			r[4] += xi * y4
			r[5] += xi * y5
			r[6] += xi * y6
			r[7] += xi * y7
		}
	}
	for i := 0; i < 8; i++ {
		addRow8((*[8]T)(c[i*ldc:]), (*[8]T)(acc[i*8:]))
	}
}

//cake:hotpath
func kernel6x8[T matrix.Scalar](kc int, a, b []T, c []T, ldc int) {
	var acc [48]T
	k := 0
	for ; k+4 <= kc; k += 4 {
		x := (*[24]T)(a[k*6:])
		y := (*[32]T)(b[k*8:])
		for j := 0; j < 8; j++ {
			y0, y1, y2, y3 := y[j], y[8+j], y[16+j], y[24+j]
			acc[j] = acc[j] + x[0]*y0 + x[6]*y1 + x[12]*y2 + x[18]*y3
			acc[8+j] = acc[8+j] + x[1]*y0 + x[7]*y1 + x[13]*y2 + x[19]*y3
			acc[16+j] = acc[16+j] + x[2]*y0 + x[8]*y1 + x[14]*y2 + x[20]*y3
			acc[24+j] = acc[24+j] + x[3]*y0 + x[9]*y1 + x[15]*y2 + x[21]*y3
			acc[32+j] = acc[32+j] + x[4]*y0 + x[10]*y1 + x[16]*y2 + x[22]*y3
			acc[40+j] = acc[40+j] + x[5]*y0 + x[11]*y1 + x[17]*y2 + x[23]*y3
		}
	}
	for ; k < kc; k++ {
		x := (*[6]T)(a[k*6:])
		y := (*[8]T)(b[k*8:])
		y0, y1, y2, y3, y4, y5, y6, y7 := y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
		for i, xi := range x {
			r := (*[8]T)(acc[i*8:])
			r[0] += xi * y0
			r[1] += xi * y1
			r[2] += xi * y2
			r[3] += xi * y3
			r[4] += xi * y4
			r[5] += xi * y5
			r[6] += xi * y6
			r[7] += xi * y7
		}
	}
	for i := 0; i < 6; i++ {
		addRow8((*[8]T)(c[i*ldc:]), (*[8]T)(acc[i*8:]))
	}
}

//cake:hotpath
func kernel4x8[T matrix.Scalar](kc int, a, b []T, c []T, ldc int) {
	var acc [32]T
	k := 0
	for ; k+4 <= kc; k += 4 {
		x := (*[16]T)(a[k*4:])
		y := (*[32]T)(b[k*8:])
		for j := 0; j < 8; j++ {
			y0, y1, y2, y3 := y[j], y[8+j], y[16+j], y[24+j]
			acc[j] = acc[j] + x[0]*y0 + x[4]*y1 + x[8]*y2 + x[12]*y3
			acc[8+j] = acc[8+j] + x[1]*y0 + x[5]*y1 + x[9]*y2 + x[13]*y3
			acc[16+j] = acc[16+j] + x[2]*y0 + x[6]*y1 + x[10]*y2 + x[14]*y3
			acc[24+j] = acc[24+j] + x[3]*y0 + x[7]*y1 + x[11]*y2 + x[15]*y3
		}
	}
	for ; k < kc; k++ {
		x := (*[4]T)(a[k*4:])
		y := (*[8]T)(b[k*8:])
		y0, y1, y2, y3, y4, y5, y6, y7 := y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
		for i, xi := range x {
			r := (*[8]T)(acc[i*8:])
			r[0] += xi * y0
			r[1] += xi * y1
			r[2] += xi * y2
			r[3] += xi * y3
			r[4] += xi * y4
			r[5] += xi * y5
			r[6] += xi * y6
			r[7] += xi * y7
		}
	}
	for i := 0; i < 4; i++ {
		addRow8((*[8]T)(c[i*ldc:]), (*[8]T)(acc[i*8:]))
	}
}

//cake:hotpath
func kernel8x4[T matrix.Scalar](kc int, a, b []T, c []T, ldc int) {
	var acc [32]T
	k := 0
	for ; k+4 <= kc; k += 4 {
		x := (*[32]T)(a[k*8:])
		y := (*[16]T)(b[k*4:])
		for j := 0; j < 4; j++ {
			y0, y1, y2, y3 := y[j], y[4+j], y[8+j], y[12+j]
			acc[j] = acc[j] + x[0]*y0 + x[8]*y1 + x[16]*y2 + x[24]*y3
			acc[4+j] = acc[4+j] + x[1]*y0 + x[9]*y1 + x[17]*y2 + x[25]*y3
			acc[8+j] = acc[8+j] + x[2]*y0 + x[10]*y1 + x[18]*y2 + x[26]*y3
			acc[12+j] = acc[12+j] + x[3]*y0 + x[11]*y1 + x[19]*y2 + x[27]*y3
			acc[16+j] = acc[16+j] + x[4]*y0 + x[12]*y1 + x[20]*y2 + x[28]*y3
			acc[20+j] = acc[20+j] + x[5]*y0 + x[13]*y1 + x[21]*y2 + x[29]*y3
			acc[24+j] = acc[24+j] + x[6]*y0 + x[14]*y1 + x[22]*y2 + x[30]*y3
			acc[28+j] = acc[28+j] + x[7]*y0 + x[15]*y1 + x[23]*y2 + x[31]*y3
		}
	}
	for ; k < kc; k++ {
		x := (*[8]T)(a[k*8:])
		y := (*[4]T)(b[k*4:])
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		for i, xi := range x {
			r := (*[4]T)(acc[i*4:])
			r[0] += xi * y0
			r[1] += xi * y1
			r[2] += xi * y2
			r[3] += xi * y3
		}
	}
	for i := 0; i < 8; i++ {
		addRow4((*[4]T)(c[i*ldc:]), (*[4]T)(acc[i*4:]))
	}
}

//cake:hotpath
func kernel4x4[T matrix.Scalar](kc int, a, b []T, c []T, ldc int) {
	var acc [16]T
	k := 0
	for ; k+4 <= kc; k += 4 {
		x := (*[16]T)(a[k*4:])
		y := (*[16]T)(b[k*4:])
		for j := 0; j < 4; j++ {
			y0, y1, y2, y3 := y[j], y[4+j], y[8+j], y[12+j]
			acc[j] = acc[j] + x[0]*y0 + x[4]*y1 + x[8]*y2 + x[12]*y3
			acc[4+j] = acc[4+j] + x[1]*y0 + x[5]*y1 + x[9]*y2 + x[13]*y3
			acc[8+j] = acc[8+j] + x[2]*y0 + x[6]*y1 + x[10]*y2 + x[14]*y3
			acc[12+j] = acc[12+j] + x[3]*y0 + x[7]*y1 + x[11]*y2 + x[15]*y3
		}
	}
	for ; k < kc; k++ {
		x := (*[4]T)(a[k*4:])
		y := (*[4]T)(b[k*4:])
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		for i, xi := range x {
			r := (*[4]T)(acc[i*4:])
			r[0] += xi * y0
			r[1] += xi * y1
			r[2] += xi * y2
			r[3] += xi * y3
		}
	}
	for i := 0; i < 4; i++ {
		addRow4((*[4]T)(c[i*ldc:]), (*[4]T)(acc[i*4:]))
	}
}

// addRow8 adds one accumulator row into its C row; it inlines, so the
// write-back runs no loop over j.
//
//cake:hotpath
func addRow8[T matrix.Scalar](c, r *[8]T) {
	c[0] += r[0]
	c[1] += r[1]
	c[2] += r[2]
	c[3] += r[3]
	c[4] += r[4]
	c[5] += r[5]
	c[6] += r[6]
	c[7] += r[7]
}

// addRow4 adds one accumulator row into its C row; it inlines, so the
// write-back runs no loop over j.
//
//cake:hotpath
func addRow4[T matrix.Scalar](c, r *[4]T) {
	c[0] += r[0]
	c[1] += r[1]
	c[2] += r[2]
	c[3] += r[3]
}
