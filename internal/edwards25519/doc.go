// Copyright (c) 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// the curve used by the Ed25519 signature scheme, for one purpose:
// verifying signatures against a small fixed set of public keys faster
// than crypto/ed25519 can. cryptoutil builds a FixedBaseTable of −A once
// per registry key and computes R′ = [S]B + [k](−A) with
// VarTimeDoubleFixedBaseMult, two fixed-base combs sharing their four
// doublings, instead of the standard library's variable-base double
// scalar multiplication, which re-decompresses A and runs ~253 doublings
// on every call.
//
// Provenance: a trimmed copy of Go 1.24's
// crypto/internal/fips140/edwards25519 (the field subpackage is its
// field directory), under the BSD license in the LICENSE file beside this
// one. Kept: field arithmetic, point encoding and decoding, addition,
// doubling, negation and the affine lookup tables. Trimmed: the Scalar
// type and its fiat-crypto arithmetic (callers reduce scalars themselves),
// constant-time selection and the constant-time scalar multiplications,
// the NAF tables, and the amd64/arm64 assembly (left out for size and
// portability, although on amd64 it multiplies field elements about 1.7x
// faster). New: FixedBaseTable, signedRadix16 on raw bytes, addMultiple
// and VarTimeDoubleFixedBaseMult.
//
// Variable time is safe here because every input is public: signature
// verification handles public keys, signatures and message digests, never
// a secret. Do not use this package for signing or key agreement.
//
// Concurrency: a Point is a plain value owned by its caller. A
// FixedBaseTable is immutable once built and may be shared; the basepoint
// table is built once, under a sync.Once, on first use.
package edwards25519
