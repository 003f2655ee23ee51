// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package detmath computes e**x and x**y with the same bits on every CPU and
// architecture, for the simulator's random draws.
//
// On amd64 the standard library's Exp is assembly
// ($GOROOT/src/math/exp_amd64.s) with two paths: CPUs with AVX and FMA take
// fused multiply-adds, the rest separate multiplies and adds, and the two
// round differently on about one argument in eleven. Other architectures
// run a third, pure-Go algorithm. Exp here is exp_amd64.s's FMA path written
// in Go with math.FMA, which rounds once on every platform, so it gives the
// bits math.Exp gives on an FMA-capable amd64 CPU everywhere. Pow is the
// standard library's pure-Go pow calling this Exp, which is what math.Pow is
// on amd64. The tests pin both to the standard library on CPUs that take
// the FMA path.
package detmath

import "math"

// The constants of exp_amd64.s.
const (
	log2e    = 1.4426950408889634073599246810018920                  // 1/ln 2
	ln2U     = 0.69314718055966295651160180568695068359375           // upper half of ln 2
	ln2L     = 0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2
	overflow = 7.09782712893384e+02
	posInf   = 0x7FF0000000000000
	negInf   = 0xFFF0000000000000
)

// Exp returns e**x, with exp_amd64.s's special cases: Exp(+Inf) = +Inf,
// Exp(-Inf) = 0 and Exp(NaN) = NaN. Like the assembly it gives +Inf from
// about 709.44 up, where its 2**e scale overflows although e**x is finite up
// to about 709.78, and 0 below the smallest denormal.
//
// The method is Naoki Shibata's ("Efficient evaluation methods of elementary
// functions suitable for SIMD computation", ISC'10), as simplified in the
// assembly: reduce x by the nearest multiple of ln 2, then by 16, evaluate
// a Taylor series and square the result back up four times.
func Exp(x float64) float64 {
	bits := math.Float64bits(x)
	switch {
	case bits == negInf:
		return 0
	case bits&^(1<<63) >= posInf: // NaN or +Inf
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL rounds to nearest even. Below the int32 range it gives the
	// most negative int32, which underflows to 0 below.
	r := math.RoundToEven(log2e * x)
	if r < math.MinInt32 {
		return 0
	}
	e := int32(r)
	fe := float64(e)
	x = math.FMA(-fe, ln2U, x)
	x = math.FMA(-fe, ln2L, x)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	p = math.FMA(p, x, 1.9841269841269841270e-4)
	p = math.FMA(p, x, 1.3888888888888888889e-3)
	p = math.FMA(p, x, 8.3333333333333333333e-3)
	p = math.FMA(p, x, 4.1666666666666666667e-2)
	p = math.FMA(p, x, 1.6666666666666666667e-1)
	p = math.FMA(p, x, 0.5)
	p = math.FMA(p, x, 1.0)
	x = float64(x * p)
	x = float64(x * (x + 2))
	x = float64(x * (x + 2))
	x = float64(x * (x + 2))
	x = math.FMA(x, x+2, 1.0)
	// Return x * 2**e.
	e += 0x3FF
	switch {
	case e <= 0: // denormal: scale in two steps
		if e < -52 {
			return 0
		}
		x *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	case e >= 0x7FF:
		return math.Inf(1)
	}
	return x * math.Float64frombits(uint64(e)<<52)
}
