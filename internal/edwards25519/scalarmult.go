// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import "sync"

// FixedBaseTable is the precomputed comb for one point Q: table i holds
// 1*Q, ..., 8*Q scaled by 256^i, the layout of the basepoint table. It
// occupies 30 KiB and is immutable once built, so it may be shared freely.
type FixedBaseTable [32]affineLookupTable

// NewFixedBaseTable precomputes the comb for q. It costs 256 field
// inversions; build it once per point and reuse it.
func NewFixedBaseTable(q *Point) *FixedBaseTable {
	checkInitialized(q)
	t := new(FixedBaseTable)
	p := new(Point).Set(q)
	for i := 0; i < 32; i++ {
		t[i].FromP3(p)
		for j := 0; j < 8; j++ {
			p.Add(p, p)
		}
	}
	return t
}

// basepointTable is a set of 32 affineLookupTables, where table i is generated
// from 256i * basepoint. It is precomputed the first time it's used.
func basepointTable() *FixedBaseTable {
	basepointTablePrecomp.initOnce.Do(func() {
		basepointTablePrecomp.table = NewFixedBaseTable(NewGeneratorPoint())
	})
	return basepointTablePrecomp.table
}

var basepointTablePrecomp struct {
	table    *FixedBaseTable
	initOnce sync.Once
}

// signedRadix16 returns the signed radix-16 digits of the 32-byte
// little-endian scalar b, each in [-8, 8). b must be below 2^255.
func signedRadix16(b *[32]byte) [64]int8 {
	if b[31] > 127 {
		panic("scalar has high bit set illegally")
	}

	var digits [64]int8

	// Compute unsigned radix-16 digits:
	for i := 0; i < 32; i++ {
		digits[2*i] = int8(b[i] & 15)
		digits[2*i+1] = int8((b[i] >> 4) & 15)
	}

	// Recenter coefficients:
	for i := 0; i < 63; i++ {
		carry := (digits[i] + 8) >> 4
		digits[i] -= carry << 4
		digits[i+1] += carry
	}

	return digits
}

// VarTimeDoubleFixedBaseMult sets v = a * A + b * B, where A is the point
// aTable was built from, B is the canonical generator, and a and b are
// 32-byte little-endian scalars below 2^255, and returns v.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleFixedBaseMult(a *[32]byte, aTable *FixedBaseTable, b *[32]byte) *Point {
	bTable := basepointTable()

	// Write a = sum(a_i * 16^i), b likewise, and group even and odd
	// coefficients as the upstream constant-time ScalarBaseMult does:
	//
	// a*A + b*B = sum_even( a_i*16^i*A + b_i*16^i*B )
	//      + 16*( sum_odd( a_i*16^(i-1)*A + b_i*16^(i-1)*B ) )
	//
	// so the two combs share one set of four doublings.
	aDigits := signedRadix16(a)
	bDigits := signedRadix16(b)

	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}

	// Accumulate the odd components first
	v.Set(NewIdentityPoint())
	for i := 1; i < 64; i += 2 {
		v.addMultiple(tmp1, &aTable[i/2], aDigits[i])
		v.addMultiple(tmp1, &bTable[i/2], bDigits[i])
	}

	// Multiply by 16
	tmp2.FromP3(v)       // tmp2 =    v in P2 coords
	tmp1.Double(tmp2)    // tmp1 =  2*v in P1xP1 coords
	tmp2.FromP1xP1(tmp1) // tmp2 =  2*v in P2 coords
	tmp1.Double(tmp2)    // tmp1 =  4*v in P1xP1 coords
	tmp2.FromP1xP1(tmp1) // tmp2 =  4*v in P2 coords
	tmp1.Double(tmp2)    // tmp1 =  8*v in P1xP1 coords
	tmp2.FromP1xP1(tmp1) // tmp2 =  8*v in P2 coords
	tmp1.Double(tmp2)    // tmp1 = 16*v in P1xP1 coords
	v.fromP1xP1(tmp1)    // now v = 16*(odd components)

	// Accumulate the even components
	for i := 0; i < 64; i += 2 {
		v.addMultiple(tmp1, &aTable[i/2], aDigits[i])
		v.addMultiple(tmp1, &bTable[i/2], bDigits[i])
	}

	return v
}
