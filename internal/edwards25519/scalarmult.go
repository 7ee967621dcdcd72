// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"sync"

	"repro/internal/edwards25519/field"
)

// combRows and combWidth shape a CombTable: row r holds j·256^(2r)·Q for
// j = 1..combWidth, so a signed radix-256 digit in [−128, 128] is one
// table entry and only the even digit positions need rows of their own.
const (
	combRows  = 16
	combWidth = 128
)

// CombTable is the precomputed radix-256 comb for one point Q: 16 rows of
// 128 affine multiples, 240 KiB in all. It is immutable once built, so it
// may be shared freely.
type CombTable [combRows][combWidth]affineCached

// NewCombTable precomputes the comb for q. All 2048 entries share one
// field inversion (Montgomery's batch trick), so the build costs about as
// much as 2048 point additions; build it once per point and reuse it.
func NewCombTable(q *Point) *CombTable {
	checkInitialized(q)
	t := new(CombTable)
	// zs[r*combWidth+j] is the Z coordinate of entry (r, j), whose other
	// coordinates sit unscaled in t until the batch inversion below.
	zs := make([]field.Element, combRows*combWidth)

	base := new(Point).Set(q)
	p := new(Point)
	var baseCached projCached
	var sum projP1xP1
	var dbl projP2
	for r := 0; r < combRows; r++ {
		baseCached.FromP3(base)
		p.Set(base)
		for j := 0; j < combWidth; j++ {
			if j > 0 {
				p.fromP1xP1(sum.Add(p, &baseCached))
			}
			e := &t[r][j]
			e.YplusX.Add(&p.y, &p.x)
			e.YminusX.Subtract(&p.y, &p.x)
			e.T2d.Multiply(&p.t, d2)
			zs[r*combWidth+j].Set(&p.z)
		}
		// base = 2^16 · base, the next row's multiplier.
		dbl.FromP3(base)
		for i := 0; i < 15; i++ {
			dbl.FromP1xP1(sum.Double(&dbl))
		}
		base.fromP1xP1(sum.Double(&dbl))
	}

	// Batch inversion: prefix[i] = z0·…·z(i−1); one Invert of the whole
	// product, then walk back peeling one factor per entry.
	prefix := make([]field.Element, len(zs))
	var acc field.Element
	acc.One()
	for i := range zs {
		prefix[i].Set(&acc)
		acc.Multiply(&acc, &zs[i])
	}
	acc.Invert(&acc)
	var invZ field.Element
	for i := len(zs) - 1; i >= 0; i-- {
		invZ.Multiply(&acc, &prefix[i])
		acc.Multiply(&acc, &zs[i])
		e := &t[i/combWidth][i%combWidth]
		e.YplusX.Multiply(&e.YplusX, &invZ)
		e.YminusX.Multiply(&e.YminusX, &invZ)
		e.T2d.Multiply(&e.T2d, &invZ)
	}
	return t
}

// basepointComb returns the comb of the canonical generator, built the
// first time it is used.
func basepointComb() *CombTable {
	basepointCombPrecomp.initOnce.Do(func() {
		basepointCombPrecomp.table = NewCombTable(NewGeneratorPoint())
	})
	return basepointCombPrecomp.table
}

var basepointCombPrecomp struct {
	table    *CombTable
	initOnce sync.Once
}

// signedRadix256 returns the signed radix-256 digits of the 32-byte
// little-endian scalar b: digits 0..30 in [−128, 128), the top digit in
// [0, 128]. b must be below 2^255.
func signedRadix256(b *[32]byte) [32]int16 {
	if b[31] > 127 {
		panic("scalar has high bit set illegally")
	}
	var digits [32]int16
	var carry int16
	for i := 0; i < 31; i++ {
		d := int16(b[i]) + carry
		carry = (d + 128) >> 8
		digits[i] = d - carry<<8
	}
	digits[31] = int16(b[31]) + carry
	return digits
}

// addDigit sets v = v + x·Q, where row holds the multiples of Q and
// −128 <= x <= 128, in variable time.
func (v *Point) addDigit(tmp *projP1xP1, row *[combWidth]affineCached, x int16) {
	switch {
	case x > 0:
		v.fromP1xP1(tmp.AddAffine(v, &row[x-1]))
	case x < 0:
		v.fromP1xP1(tmp.SubAffine(v, &row[-x-1]))
	}
}

// VarTimeDoubleCombMult sets v = a * A + b * B, where A is the point
// aTable was built from, B is the canonical generator, and a and b are
// 32-byte little-endian scalars below 2^255, and returns v.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleCombMult(a *[32]byte, aTable *CombTable, b *[32]byte) *Point {
	bTable := basepointComb()

	// Write a = sum(a_i * 256^i), b likewise, and split odd from even
	// positions:
	//
	// a*A + b*B = sum_even( a_i*256^i*A + b_i*256^i*B )
	//      + 256*( sum_odd( a_i*256^(i-1)*A + b_i*256^(i-1)*B ) )
	//
	// so both scalars share one set of eight doublings, and digit i reads
	// row i/2.
	aDigits := signedRadix256(a)
	bDigits := signedRadix256(b)

	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}

	// Accumulate the odd components first.
	v.Set(identity)
	for i := 1; i < 32; i += 2 {
		v.addDigit(tmp1, &aTable[i/2], aDigits[i])
		v.addDigit(tmp1, &bTable[i/2], bDigits[i])
	}

	// Multiply by 256.
	tmp2.FromP3(v)
	for i := 0; i < 7; i++ {
		tmp2.FromP1xP1(tmp1.Double(tmp2))
	}
	v.fromP1xP1(tmp1.Double(tmp2))

	// Accumulate the even components.
	for i := 0; i < 32; i += 2 {
		v.addDigit(tmp1, &aTable[i/2], aDigits[i])
		v.addDigit(tmp1, &bTable[i/2], bDigits[i])
	}

	return v
}
