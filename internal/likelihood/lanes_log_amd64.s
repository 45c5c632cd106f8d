#include "textflag.h"

// laneLog: math.Log four values at a time. On amd64 math.Log is archLog
// ($GOROOT/src/math/log_amd64.s); this is that routine transcribed to four
// lanes, operation for operation and operand order for operand order, so
// each lane returns archLog's bits (TestLaneLogMatchesMathLog compares the
// two at run time):
//
//   - frexp by masks: f1 = (x & mantissa) | 0.5, k = exponent field − 1022;
//   - k as a double without a conversion instruction: the exponent field
//     e < 2^11 ORed into the mantissa of 2^52+2^51 gives 2^52+2^51+e, and
//     subtracting 2^52+2^51+1022 leaves e − 1022 exactly (the difference of
//     two doubles one ulp-1 apart is exact), as CVTSL2SD gives it;
//   - CMPSD $5 (not less than) as VCMPPD $5 with the same operands: where
//     !(√2/2 < f1), k −= 1 and f1 ·= 2;
//   - then archLog's s, s², s⁴, its two polynomials, R, hfsq and the final
//     sums, each operation with archLog's operands in archLog's order;
//   - special cases blended in at the end, later blends winning, in
//     archLog's precedence: +Inf or NaN (bits ≥ 0x7FF0… as a signed
//     integer) → x; sign bit set → NaN 0x7FF8000000000001; ±0 → −Inf.

#define CONST4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(logMant, $0x000FFFFFFFFFFFFF)
CONST4(logHalf, $0x3FE0000000000000)     // 0.5
CONST4(logExpMask, $0x00000000000007FF)
CONST4(logMagic, $0x4338000000000000)    // 2^52 + 2^51
CONST4(logMagicK, $0x43380000000003FE)   // 2^52 + 2^51 + 1022
CONST4(logHSqrt2, $0x3FE6A09E667F3BCD)   // √2/2
CONST4(logOne, $0x3FF0000000000000)
CONST4(logTwo, $0x4000000000000000)
CONST4(logL1, $0x3FE5555555555593)
CONST4(logL2, $0x3FD999999997FA04)
CONST4(logL3, $0x3FD2492494229359)
CONST4(logL4, $0x3FCC71C51D8E78AF)
CONST4(logL5, $0x3FC7466496CB03DE)
CONST4(logL6, $0x3FC39A09D078C69F)
CONST4(logL7, $0x3FC2F112DF3E5244)
CONST4(logLn2Hi, $0x3FE62E42FEE00000)
CONST4(logLn2Lo, $0x3DEA39EF35793C76)
CONST4(logAbs, $0x7FFFFFFFFFFFFFFF)
CONST4(logBelowInf, $0x7FEFFFFFFFFFFFFF)
CONST4(logNaN, $0x7FF8000000000001)
CONST4(logNegInf, $0xFFF0000000000000)

// func laneLog(v []float64, n int)
//
// Replaces v[0..n) by their logs, n a multiple of 4.
TEXT ·laneLog(SB), NOSPLIT, $0-32
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   none
	MOVQ v_base+0(FP), SI
	VPXOR Y15, Y15, Y15

loop:
	VMOVUPD (SI), Y0

	// f1 := frexp fraction; k := float64(exponent − 1022)
	VANDPD logMant<>(SB), Y0, Y2
	VORPD  logHalf<>(SB), Y2, Y2
	VPSRLQ $52, Y0, Y1
	VPAND  logExpMask<>(SB), Y1, Y1
	VPOR   logMagic<>(SB), Y1, Y1
	VSUBPD logMagicK<>(SB), Y1, Y1

	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }
	VMOVUPD logHSqrt2<>(SB), Y3
	VCMPPD  $5, Y2, Y3, Y3
	VANDPD  logOne<>(SB), Y3, Y4
	VSUBPD  Y4, Y1, Y1
	VADDPD  logOne<>(SB), Y4, Y4
	VMULPD  Y4, Y2, Y2

	// f := f1 − 1; s := f / (2 + f); s2 := s·s; s4 := s2·s2
	VSUBPD  logOne<>(SB), Y2, Y2
	VMOVUPD logTwo<>(SB), Y5
	VADDPD  Y2, Y5, Y5
	VDIVPD  Y5, Y2, Y3
	VMULPD  Y3, Y3, Y4
	VMULPD  Y4, Y4, Y5

	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMOVUPD logL7<>(SB), Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL5<>(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL3<>(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL1<>(SB), Y6, Y6
	VMULPD  Y6, Y4, Y4

	// t2 := s4·(L2 + s4·(L4 + s4·L6)); R := t1 + t2
	VMOVUPD logL6<>(SB), Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL4<>(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL2<>(SB), Y6, Y6
	VMULPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4

	// hfsq := 0.5·f·f
	VMOVUPD logHalf<>(SB), Y6
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y6, Y6

	// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
	VADDPD  Y6, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMOVUPD logLn2Lo<>(SB), Y4
	VMULPD  Y1, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y6, Y6
	VSUBPD  Y2, Y6, Y6
	VMULPD  logLn2Hi<>(SB), Y1, Y1
	VSUBPD  Y6, Y1, Y1

	// Special cases, archLog's precedence: the last blend wins.
	VPCMPGTQ  logBelowInf<>(SB), Y0, Y7
	VBLENDVPD Y7, Y0, Y1, Y1
	VBLENDVPD Y0, logNaN<>(SB), Y1, Y1
	VANDPD    logAbs<>(SB), Y0, Y7
	VPCMPEQQ  Y15, Y7, Y7
	VBLENDVPD Y7, logNegInf<>(SB), Y1, Y1

	VMOVUPD Y1, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

none:
	RET
