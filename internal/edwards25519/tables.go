// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

// A precomputed lookup table for fixed-base scalar muls.
type affineLookupTable struct {
	points [8]affineCached
}

// This is not optimised for speed; fixed-base tables should be precomputed.
func (v *affineLookupTable) FromP3(q *Point) {
	// Goal: v.points[i] = (i+1)*Q, i.e., Q, 2Q, ..., 8Q
	// This allows lookup of -8Q, ..., -Q, 0, Q, ..., 8Q
	v.points[0].FromP3(q)
	tmpP3 := Point{}
	tmpP1xP1 := projP1xP1{}
	for i := 0; i < 7; i++ {
		// Compute (i+1)*Q as Q + i*Q and convert to affineCached
		v.points[i+1].FromP3(tmpP3.fromP1xP1(tmpP1xP1.AddAffine(q, &v.points[i])))
	}
}

// addMultiple sets v = v + x*Q, where Q is the point the table was built
// from and -8 <= x <= 8, in variable time.
func (v *Point) addMultiple(tmp *projP1xP1, table *affineLookupTable, x int8) {
	switch {
	case x > 0:
		v.fromP1xP1(tmp.AddAffine(v, &table.points[x-1]))
	case x < 0:
		v.fromP1xP1(tmp.SubAffine(v, &table.points[-x-1]))
	}
}
