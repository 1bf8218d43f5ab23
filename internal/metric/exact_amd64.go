//go:build amd64

package metric

// useExactAsm gates the AVX2 exact-grade tile body. The asm path performs
// the identical lane operations in the identical order as the scalar
// reference (exact float32→float64 widening, then elementwise IEEE
// binary64 subtract/multiply/add with no fused multiply-add on either
// side), so this is purely a throughput switch — results are
// bit-identical either way.
var useExactAsm = x86HasAVX2()

// exactBody2x4Asm accumulates, for two queries against four point rows
// per pass, the 4-lane float64 sums of squared differences over the first
// n elements (n a positive multiple of 4): lanes[i][t][l] equals s_l of
// Euclidean.OrderingDistances for (qi, rt) below n. Implemented in
// exact_amd64.s.
//
//go:noescape
func exactBody2x4Asm(q0, q1, r0, r1, r2, r3 *float32, n int, lanes *[2][4][4]float64)
