#include "textflag.h"

// func exactBody2x4Asm(q0, q1, r0, r1, r2, r3 *float32, n int, lanes *[2][4][4]float64)
// Accumulates the 4-lane float64 sums of squared differences over the
// first n elements (n a positive multiple of 4) of each query qi against
// each point row rt: lanes[i][t][l] = sum over d≡l (mod 4), d<n of
// (float64(qi[d])-float64(rt[d]))² accumulated in d order — exactly s_l of
// Euclidean.OrderingDistances for the pair (qi, rt).
//
// Register blocking: two queries × four point rows per pass. Each point
// load is shared by both queries and each query load by all four rows,
// so one pass converts six vectors for eight pairs. VCVTPS2PD widens
// float32 to float64 exactly, so the float32 rows are read in place.
// VSUBPD/VMULPD/VADDPD are elementwise IEEE binary64 with the reference's
// operand order (q−r), so every lane matches the scalar loop bit for bit.
// No FMA: the Go reference is never fused on amd64, and fusing here would
// change bits.
//
// Registers: Y0/Y1 hold q0/q1, Y2–Y5 accumulate q0 against r0..r3, Y6–Y9
// accumulate q1 against r0..r3, Y10–Y15 are temporaries.
TEXT ·exactBody2x4Asm(SB), NOSPLIT, $0-64
	MOVQ q0+0(FP), SI
	MOVQ q1+8(FP), DX
	MOVQ r0+16(FP), R9
	MOVQ r1+24(FP), R10
	MOVQ r2+32(FP), R11
	MOVQ r3+40(FP), R12
	MOVQ n+48(FP), BX
	MOVQ lanes+56(FP), DI
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	XORQ AX, AX
	TESTQ BX, BX
	JE   store

loop:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD (DX)(AX*4), Y1
	VCVTPS2PD (R9)(AX*4), Y10
	VSUBPD    Y10, Y0, Y11
	VSUBPD    Y10, Y1, Y12
	VMULPD    Y11, Y11, Y11
	VMULPD    Y12, Y12, Y12
	VADDPD    Y11, Y2, Y2
	VADDPD    Y12, Y6, Y6
	VCVTPS2PD (R10)(AX*4), Y13
	VSUBPD    Y13, Y0, Y14
	VSUBPD    Y13, Y1, Y15
	VMULPD    Y14, Y14, Y14
	VMULPD    Y15, Y15, Y15
	VADDPD    Y14, Y3, Y3
	VADDPD    Y15, Y7, Y7
	VCVTPS2PD (R11)(AX*4), Y10
	VSUBPD    Y10, Y0, Y11
	VSUBPD    Y10, Y1, Y12
	VMULPD    Y11, Y11, Y11
	VMULPD    Y12, Y12, Y12
	VADDPD    Y11, Y4, Y4
	VADDPD    Y12, Y8, Y8
	VCVTPS2PD (R12)(AX*4), Y13
	VSUBPD    Y13, Y0, Y14
	VSUBPD    Y13, Y1, Y15
	VMULPD    Y14, Y14, Y14
	VMULPD    Y15, Y15, Y15
	VADDPD    Y14, Y5, Y5
	VADDPD    Y15, Y9, Y9
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  loop

store:
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	VMOVUPD Y4, 64(DI)
	VMOVUPD Y5, 96(DI)
	VMOVUPD Y6, 128(DI)
	VMOVUPD Y7, 160(DI)
	VMOVUPD Y8, 192(DI)
	VMOVUPD Y9, 224(DI)
	VZEROUPPER
	RET
