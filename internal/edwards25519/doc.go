// Copyright (c) 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// the curve used by the Ed25519 signature scheme, for one purpose:
// verifying signatures against a small fixed set of public keys faster
// than crypto/ed25519 can. cryptoutil builds a CombTable of −A once per
// registry key and computes R′ = [S]B + [k](−A) with
// VarTimeDoubleCombMult instead of the standard library's variable-base
// double scalar multiplication, which re-decompresses A and runs ~253
// doublings on every call.
//
// The comb: a CombTable holds 16 rows of 128 affine multiples, row r
// being j·256^(2r)·Q for j = 1..128 (240 KiB per point). A scalar is
// written in signed radix-256 digits in [−128, 128]; digit i reads row
// i/2. VarTimeDoubleCombMult adds the odd digits of both scalars, runs
// the eight doublings both share, then adds the even digits: at most 64
// mixed additions per check. NewCombTable converts all 2048 entries to
// affine with one batched inversion, so a table costs about as much to
// build as the radix-16 one it replaced.
//
// Provenance: a trimmed copy of Go 1.24's
// crypto/internal/fips140/edwards25519 (the field subpackage is its
// field directory), under the BSD license in the LICENSE file beside this
// one. Kept: field arithmetic, point encoding and decoding, addition,
// doubling and negation. field/fe_amd64.s, fe_amd64.go and
// fe_amd64_noasm.go are the upstream files unchanged: avo-generated
// feMul and feSquare in plain MULQ, so they need no CPU-feature check.
// The generic field code stays as the only path on other architectures
// and under the purego build tag (make check runs the tests both ways).
// Trimmed: the Scalar type and its fiat-crypto arithmetic (callers reduce
// scalars themselves), constant-time selection and the constant-time
// scalar multiplications, the lookup and NAF tables, and the arm64
// assembly. New: CombTable, signedRadix256 on raw bytes, addDigit and
// VarTimeDoubleCombMult.
//
// Variable time is safe here because every input is public: signature
// verification handles public keys, signatures and message digests, never
// a secret. Do not use this package for signing or key agreement.
//
// Concurrency: a Point is a plain value owned by its caller. A CombTable
// is immutable once built and may be shared; the basepoint comb is built
// once, under a sync.Once, on first use.
package edwards25519
