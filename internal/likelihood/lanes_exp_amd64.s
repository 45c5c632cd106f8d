#include "textflag.h"

// laneExp: math.Exp four values at a time. On amd64 math.Exp is archExp
// ($GOROOT/src/math/exp_amd64.s); on a CPU with AVX and FMA it takes the
// routine's FMA arm (math's useFMA), and this is that arm transcribed to
// four lanes, operation for operation and operand order for operand order,
// so each lane returns archExp's bits (TestLaneExpMatchesMathExp compares
// the two at run time). Go calls it only where that arm runs
// (haveExpLanes):
//
//   - k = round(LOG2E·x) by the MXCSR rounding, as CVTSD2SL gives it, and
//     back to a double exactly;
//   - x −= k·LN2U and x −= k·LN2L, each one fused negated multiply-add;
//   - x ·= 1/16, the Taylor polynomial in x by seven fused multiply-adds,
//     then four squarings of the form x·(x+2), the last one fused with
//     its + 1;
//   - times 2^k, built from k + 1023 in the exponent field.
//
// archExp's other paths — a non-finite x, x above the overflow threshold,
// and k + 1023 outside [1, 2046] (its overflow, denormal and underflow
// branches) — all leave k + 1023 outside [1, 2046]: the conversion of a
// NaN, an infinity or a value beyond the int32 range gives −2^31. A group
// with such a lane is not written; the routine returns, and Go computes
// that group with math.Exp (expAll).

#define CONST4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

#define CONST4D(name, v) \
	DATA name<>+0(SB)/4, v; \
	DATA name<>+4(SB)/4, v; \
	DATA name<>+8(SB)/4, v; \
	DATA name<>+12(SB)/4, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $16

CONST4(expLog2e, $1.4426950408889634073599246810018920)
CONST4(expLn2U, $0.69314718055966295651160180568695068359375)
CONST4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(expSixteenth, $0.0625)
CONST4(expHalf, $0.5)
CONST4(expOne, $1.0)
CONST4(expTwo, $2.0)
CONST4(expC3, $1.6666666666666666667e-1)
CONST4(expC4, $4.1666666666666666667e-2)
CONST4(expC5, $8.3333333333333333333e-3)
CONST4(expC6, $1.3888888888888888889e-3)
CONST4(expC7, $1.9841269841269841270e-4)
CONST4(expC8, $2.4801587301587301587e-5)
CONST4D(expBias, $1023)
CONST4D(expLimit, $2047)

// func laneExp(v []float64) int
//
// Replaces v[0..n) by their exponentials four at a time, n = len(v)
// rounded down to a multiple of 4, and returns n — or, at the first group
// with a lane outside the range above, the number of values replaced
// before it, leaving that group as it was.
TEXT ·laneExp(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   none
	VPXOR X15, X15, X15
	VMOVDQU expLimit<>(SB), X14

loop:
	VMOVUPD (SI), Y0

	// k := round(LOG2E·x); every lane must have 1 <= k+1023 <= 2046
	VMULPD     expLog2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VPADDD     expBias<>(SB), X2, X3
	VPCMPGTD   X15, X3, X4
	VPCMPGTD   X3, X14, X5
	VPAND      X5, X4, X4
	VMOVMSKPS  X4, DX
	CMPL       DX, $15
	JNE        out
	VCVTDQ2PD  X2, Y1

	// x = x − k·LN2U − k·LN2L, fused; x ·= 1/16
	VFNMADD231PD expLn2U<>(SB), Y1, Y0
	VFNMADD231PD expLn2L<>(SB), Y1, Y0
	VMULPD       expSixteenth<>(SB), Y0, Y0

	// the Taylor polynomial, fused
	VMOVUPD     expC8<>(SB), Y1
	VFMADD213PD expC7<>(SB), Y0, Y1
	VFMADD213PD expC6<>(SB), Y0, Y1
	VFMADD213PD expC5<>(SB), Y0, Y1
	VFMADD213PD expC4<>(SB), Y0, Y1
	VFMADD213PD expC3<>(SB), Y0, Y1
	VFMADD213PD expHalf<>(SB), Y0, Y1
	VFMADD213PD expOne<>(SB), Y0, Y1

	// four times x = x·(x+2), the last + 1 fused
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VFMADD213PD expOne<>(SB), Y1, Y0

	// times 2^k
	VPMOVZXDQ X3, Y1
	VPSLLQ    $52, Y1, Y1
	VMULPD    Y1, Y0, Y0

	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	ADDQ    $4, AX
	DECQ    CX
	JNZ     loop

out:
	VZEROUPPER

none:
	MOVQ AX, ret+24(FP)
	RET
