#include "textflag.h"
#include "go_asm.h"

// State lanes of the PSR block workers (lanes.go). Lane x of a Y register
// holds state x of one site: a site picks its own matrix, and the four
// lanes share that matrix's columns. Each routine runs every site of its
// block — there is no tail — and evaluates, per site, the Go loop's
// expressions with the same operands in the same order, products
// included, no FMA, so every value it writes has the bits the Go loop
// would have written. A routine with no site returns before its first
// vector instruction, so a call that does nothing is safe on any CPU.
//
// A PSR matrix set is stored transposed (Kernel.probMatrices): the matrix
// of category c is the 128 bytes at set + c·128, and its 32-byte row y is
// column y of P. A P·tipVec table (fillTipTable) holds the 32-byte row of
// category c and code at (c·16 + code)·32.
//
// Shared register use in the block routines: R8 is the plane stride in
// bytes and R9 three times it, so (B), (B)(R8*1), (B)(R8*2), (B)(R9*1)
// are the four state planes at site pointer B; CX is the site index; R10
// points at the block's categories; after SITECAT, R13 is the site's
// matrix offset and R14 its tip-table row offset.

// COLDOT sets ACC to P·v in state lanes from the transposed matrix at
// O(PT) and v's entries V0..V3 (memory operands, broadcast): lane x is
// ((P[x][0]·v0 + P[x][1]·v1) + P[x][2]·v2) + P[x][3]·v3, the Go loops'
// row sum in its order. TMP is clobbered.
#define COLDOT(PT, O, V0, V1, V2, V3, ACC, TMP) \
	VBROADCASTSD V0, ACC; \
	VMULPD       (O+0)(PT), ACC, ACC; \
	VBROADCASTSD V1, TMP; \
	VMULPD       (O+32)(PT), TMP, TMP; \
	VADDPD       TMP, ACC, ACC; \
	VBROADCASTSD V2, TMP; \
	VMULPD       (O+64)(PT), TMP, TMP; \
	VADDPD       TMP, ACC, ACC; \
	VBROADCASTSD V3, TMP; \
	VMULPD       (O+96)(PT), TMP, TMP; \
	VADDPD       TMP, ACC, ACC

// PLANEDOT is COLDOT of the site's entries of the four state planes at B.
#define PLANEDOT(PT, B, ACC, TMP) \
	COLDOT(PT, 0, (B), (B)(R8*1), (B)(R8*2), (B)(R9*1), ACC, TMP)

// LOADCOL loads the site's entries of the four state planes at B into the
// lanes of Y (low half X). XT is clobbered.
#define LOADCOL(B, Y, X, XT) \
	VMOVSD      (B), X; \
	VMOVHPD     (B)(R8*1), X, X; \
	VMOVSD      (B)(R8*2), XT; \
	VMOVHPD     (B)(R9*1), XT, XT; \
	VINSERTF128 $1, XT, Y, Y

// STORECOL stores the lanes of Y (low half X) to the site's entries of the
// four state planes at B. XT is clobbered.
#define STORECOL(Y, X, XT, B) \
	VMOVSD       X, (B); \
	VMOVHPD      X, (B)(R8*1); \
	VEXTRACTF128 $1, Y, XT; \
	VMOVSD       XT, (B)(R8*2); \
	VMOVHPD      XT, (B)(R9*1)

// HSUM sets XS to the state sum of the lanes of Y (low half X), taken as
// the Go loops take `s := 0.0; s += t0; …; s += t3`: from +0.0, lane 0
// first, so a −0 sum is +0. XT is clobbered.
#define HSUM(Y, X, XS, XT) \
	VXORPD       XS, XS, XS; \
	VADDSD       X, XS, XS; \
	VPERMILPD    $1, X, XT; \
	VADDSD       XT, XS, XS; \
	VEXTRACTF128 $1, Y, XT; \
	VADDSD       XT, XS, XS; \
	VPERMILPD    $1, XT, XT; \
	VADDSD       XT, XS, XS

// SCALETEST sets AX to the 4-bit mask of the lanes of V that are >=
// ScaleThreshold or NaN: predicate NLT_UQ (0x15) is !(v < threshold),
// exactly the Go test v >= ScaleThreshold || v != v. A site whose mask is
// 0 is rescaled. TMP is clobbered.
#define SCALETEST(V, TMP) \
	VCMPPD    $0x15, ·laneThresh(SB), V, TMP; \
	VMOVMSKPD TMP, AX

// SITECAT loads site CX's category c and sets R13 = c·128, the offset of
// its matrix in a set, and R14 = c·512, the offset of its rows in a tip
// table.
#define SITECAT \
	MOVQ (R10)(CX*8), R13; \
	MOVQ R13, R14; \
	SHLQ $7, R13; \
	SHLQ $9, R14

// TABROW loads into Y the tip-table row of site CX: TIPS and TAB are
// registers holding the base pointers of the block's tip codes and of the
// table. TIPS is clobbered.
#define TABROW(TIPS, TAB, Y) \
	MOVBQZX (TIPS)(CX*1), TIPS; \
	SHLQ    $5, TIPS; \
	ADDQ    R14, TIPS; \
	VMOVUPD (TAB)(TIPS*1), Y

// STRIDE loads the plane stride (in doubles) from S into R8 and R9 as
// bytes, once and three times.
#define STRIDE(S) \
	MOVQ S, R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9

// func lanePSRNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, cats []int, pa, pb *[16]float64, sa, sb, ds []int32)
//
// Newview of every operand shape: an operand's factor is P·v of its planes
// or, for a tip, its table row; v = la·lb, rescaled if no lane passes the
// scale test, and ds = sa + sb (+1).
TEXT ·lanePSRNewview(SB), NOSPLIT, $0-304
	MOVQ  cats_len+200(FP), AX
	TESTQ AX, AX
	JZ    none
	MOVQ  d_base+0(FP), DX
	MOVQ  a_base+24(FP), SI
	MOVQ  b_base+104(FP), DI
	STRIDE(stride+184(FP))
	MOVQ  cats_base+192(FP), R10
	MOVQ  pa+216(FP), R11
	MOVQ  pb+224(FP), R12
	XORQ  CX, CX

loop:
	SITECAT
	CMPB tipA+96(FP), $0
	JNE  tipa
	LEAQ (R11)(R13*1), BX
	PLANEDOT(BX, SI, Y0, Y1)
	JMP  factorb

tipa:
	MOVQ tipsA_base+48(FP), AX
	MOVQ tabA_base+72(FP), BX
	TABROW(AX, BX, Y0)

factorb:
	CMPB tipB+176(FP), $0
	JNE  tipb
	LEAQ (R12)(R13*1), BX
	PLANEDOT(BX, DI, Y2, Y1)
	JMP  combine

tipb:
	MOVQ tipsB_base+128(FP), AX
	MOVQ tabB_base+152(FP), BX
	TABROW(AX, BX, Y2)

combine:
	VMULPD Y2, Y0, Y0
	MOVQ   sa_base+232(FP), AX
	MOVL   (AX)(CX*4), BX
	MOVQ   sb_base+256(FP), AX
	ADDL   (AX)(CX*4), BX
	SCALETEST(Y0, Y1)
	TESTL  AX, AX
	JNZ    store
	VMULPD ·laneScale(SB), Y0, Y0
	INCL   BX

store:
	MOVQ ds_base+280(FP), AX
	MOVL BX, (AX)(CX*4)
	STORECOL(Y0, X0, X1, DX)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	INCQ CX
	CMPQ CX, cats_len+200(FP)
	JNE  loop
	VZEROUPPER

none:
	RET

// func lanePSREvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][4]float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, cats []int, pm *[16]float64, freqs *[4]float64)
//
// The per-site likelihood of an evaluation: the near vector vp from its
// planes or a tip's 0/1 vector, the far factor right = P·vq or a tip's
// table row, and site = Σ_x (π_x·vp_x)·right_x summed from +0.0.
TEXT ·lanePSREvaluate(SB), NOSPLIT, $0-216
	MOVQ    cats_len+184(FP), AX
	TESTQ   AX, AX
	JZ      none
	MOVQ    site_base+0(FP), DX
	MOVQ    p_base+24(FP), SI
	MOVQ    q_base+88(FP), DI
	STRIDE(stride+168(FP))
	MOVQ    cats_base+176(FP), R10
	MOVQ    pm+200(FP), R11
	MOVQ    freqs+208(FP), AX
	VMOVUPD (AX), Y15
	XORQ    CX, CX

loop:
	SITECAT
	CMPB tipP+80(FP), $0
	JNE  tipp
	LOADCOL(SI, Y0, X0, X1)
	JMP  far

tipp:
	MOVQ    tipsP_base+48(FP), AX
	MOVBQZX (AX)(CX*1), AX
	SHLQ    $5, AX
	ADDQ    tipVec+72(FP), AX
	VMOVUPD (AX), Y0

far:
	CMPB tipQ+160(FP), $0
	JNE  tipq
	LEAQ (R11)(R13*1), BX
	PLANEDOT(BX, DI, Y2, Y1)
	JMP  sum

tipq:
	MOVQ tipsQ_base+112(FP), AX
	MOVQ tabQ_base+136(FP), BX
	TABROW(AX, BX, Y2)

sum:
	VMULPD Y0, Y15, Y0
	VMULPD Y2, Y0, Y0
	HSUM(Y0, X0, X3, X1)
	VMOVSD X3, (DX)(CX*8)
	ADDQ   $8, SI
	ADDQ   $8, DI
	INCQ   CX
	CMPQ   CX, cats_len+184(FP)
	JNE    loop
	VZEROUPPER

none:
	RET

// func lanePSRRight(d, q []float64, stride int, cats []int, pm *[16]float64)
//
// The insertion table of an inner subtree: right = P·vq per site, stored
// to the table's four planes.
TEXT ·lanePSRRight(SB), NOSPLIT, $0-88
	MOVQ  cats_len+64(FP), AX
	TESTQ AX, AX
	JZ    none
	MOVQ  d_base+0(FP), DX
	MOVQ  q_base+24(FP), DI
	STRIDE(stride+48(FP))
	MOVQ  cats_base+56(FP), R10
	MOVQ  pm+80(FP), R11
	XORQ  CX, CX

loop:
	SITECAT
	LEAQ (R11)(R13*1), BX
	PLANEDOT(BX, DI, Y0, Y1)
	STORECOL(Y0, X0, X1, DX)
	ADDQ $8, DI
	ADDQ $8, DX
	INCQ CX
	CMPQ CX, cats_len+64(FP)
	JNE  loop
	VZEROUPPER

none:
	RET

// func lanePSRScore(site []float64, noScale []bool, a, b []float64, tipsB []msa.State, tabB []float64, tipB bool, t []float64, stride int, cats []int, pm *[16]float64, freqs *[4]float64)
//
// The per-site likelihood of an insertion score: Newview's v = (P·va)·lb
// with lb = P·vb or the far tip's table row, one matrix for both, rescaled
// if no lane passes the scale test (noScale records the test), then
// site = Σ_x (π_x·v_x)·t_x against the insertion table's planes, from +0.0.
TEXT ·lanePSRScore(SB), NOSPLIT, $0-224
	MOVQ    cats_len+192(FP), AX
	TESTQ   AX, AX
	JZ      none
	MOVQ    site_base+0(FP), DX
	MOVQ    a_base+48(FP), SI
	MOVQ    b_base+72(FP), DI
	MOVQ    t_base+152(FP), R12
	STRIDE(stride+176(FP))
	MOVQ    cats_base+184(FP), R10
	MOVQ    pm+208(FP), R11
	MOVQ    freqs+216(FP), AX
	VMOVUPD (AX), Y15
	XORQ    CX, CX

loop:
	SITECAT
	LEAQ (R11)(R13*1), BX
	PLANEDOT(BX, SI, Y0, Y1)
	CMPB tipB+144(FP), $0
	JNE  tipb
	PLANEDOT(BX, DI, Y2, Y1)
	JMP  combine

tipb:
	MOVQ tipsB_base+96(FP), AX
	MOVQ tabB_base+120(FP), BX
	TABROW(AX, BX, Y2)

combine:
	VMULPD Y2, Y0, Y0
	SCALETEST(Y0, Y1)
	MOVQ   noScale_base+24(FP), BX
	TESTL  AX, AX
	SETNE  (BX)(CX*1)
	JNZ    terms
	VMULPD ·laneScale(SB), Y0, Y0

terms:
	LOADCOL(R12, Y2, X2, X1)
	VMULPD Y0, Y15, Y0
	VMULPD Y2, Y0, Y0
	HSUM(Y0, X0, X3, X1)
	VMOVSD X3, (DX)(CX*8)
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, R12
	INCQ   CX
	CMPQ   CX, cats_len+192(FP)
	JNE    loop
	VZEROUPPER

none:
	RET

// OPERAND sets V to the address of the site's vector of the Ref at
// OFF(R), and S to its scale count: a
// tip's 0/1 vector tipVec[tips[Idx][site]] with count 0, or the vector and
// count an earlier step wrote to the scratch for inner slot Idx (R8 the
// vectors, R9 the counts, R12 the tip rows, R13 the site, R14 tipVec).
// Kind 0 (Inner) reads the scratch and any other kind a tip: the rate
// scan runs descriptors, which hold tips and CLV slots only. AX is
// clobbered; LTIP and LDONE are labels of the expansion's own.
#define OPERAND(R, OFF, V, S, LTIP, LDONE) \
	MOVLQSX (OFF+Ref_Idx)(R), AX; \
	CMPB    (OFF+Ref_Kind)(R), $0; \
	JNE     LTIP; \
	MOVL    (R9)(AX*4), S; \
	SHLQ    $5, AX; \
	LEAQ    (R8)(AX*1), V; \
	JMP     LDONE; \
LTIP: \
	LEAQ    (AX)(AX*2), AX; \
	MOVQ    (R12)(AX*8), AX; \
	MOVBQZX (AX)(R13*1), AX; \
	SHLQ    $5, AX; \
	LEAQ    (R14)(AX*1), V; \
	XORL    S, S; \
LDONE:

// VECDOT is COLDOT of the 4-vector at V.
#define VECDOT(PT, O, V, ACC, TMP) \
	COLDOT(PT, O, 0(V), 8(V), 16(V), 24(V), ACC, TMP)

// func laneSiteLnL(vec [][4]float64, scale []int32, steps []Step, tips [][]msa.State, site int, tipVec *[16][4]float64, pm [][16]float64, p, q Ref, freqs *[4]float64) (l float64, sc int32)
//
// The single-site recursion of siteLnL for one site: per step, v =
// (P_a·va)·(P_b·vb) with the step's two matrices, rescaled if no lane
// passes the scale test, written with its count to the scratch slot Dst;
// then the root edge's l = Σ_x (π_x·vp_x)·(P·vq)_x from +0.0, and the two
// root operands' summed scale counts. The log is the caller's.
TEXT ·laneSiteLnL(SB), NOSPLIT, $0-172
	MOVQ vec_base+0(FP), R8
	MOVQ scale_base+24(FP), R9
	MOVQ steps_base+48(FP), R10
	MOVQ steps_len+56(FP), R11
	MOVQ tips_base+72(FP), R12
	MOVQ site+96(FP), R13
	MOVQ tipVec+104(FP), R14
	MOVQ pm_base+112(FP), DX
	TESTQ R11, R11
	JZ   root

step:
	OPERAND(R10, Step_A, SI, BX, tipa, donea)
	OPERAND(R10, Step_B, DI, CX, tipb, doneb)
	VECDOT(DX, 0, SI, Y0, Y1)
	VECDOT(DX, 128, DI, Y2, Y1)
	VMULPD Y2, Y0, Y0
	ADDL   CX, BX
	SCALETEST(Y0, Y1)
	TESTL  AX, AX
	JNZ    store
	VMULPD ·laneScale(SB), Y0, Y0
	INCL   BX

store:
	MOVLQSX (Step_Dst+Ref_Idx)(R10), AX
	MOVL    BX, (R9)(AX*4)
	SHLQ    $5, AX
	VMOVUPD Y0, (R8)(AX*1)
	ADDQ    $Step__size, R10
	ADDQ    $256, DX
	DECQ    R11
	JNZ     step

root:
	LEAQ p+136(FP), R11
	OPERAND(R11, 0, SI, BX, tipp, donep)
	OPERAND(R11, Ref__size, DI, CX, tipq, doneq)
	VECDOT(DX, 0, DI, Y2, Y1)
	MOVQ    freqs+152(FP), AX
	VMOVUPD (AX), Y0
	VMULPD  (SI), Y0, Y0
	VMULPD  Y2, Y0, Y0
	HSUM(Y0, X0, X3, X1)
	VMOVSD  X3, l+160(FP)
	ADDL    CX, BX
	MOVL    BX, sc+168(FP)
	VZEROUPPER
	RET

// The sum-table workers (sumtable.go). The table is pattern-major, so a
// site's row of four eigen entries is one Y register. These two take the
// whole operand slices and the index of the first site: the fill runs
// every site in eigen lanes, the derivative four sites per instruction,
// its caller handling the tail of up to three sites.

// PITERM sets ACC to (π_x·v_x)·U[x][·]: the plane entry V broadcast,
// times PI (π_x in every lane), times the row U (a register).
#define PITERM(V, PI, U, ACC) \
	VBROADCASTSD V, ACC; \
	VMULPD       PI, ACC, ACC; \
	VMULPD       U, ACC, ACC

// func lanePSRPrepare(st, p []float64, tipsP []msa.State, tabP []float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride, lo, n int, u, uit *[16]float64, freqs *[4]float64)
//
// The PSR sum-table fill of every operand shape, in eigen lanes (lane k
// is eigen index k), for sites lo..lo+n−1: the p factor ap_k =
// ((π0·v0)·U[0][k] + (π1·v1)·U[1][k]) + (π2·v2)·U[2][k]) + (π3·v3)·U[3][k]
// from p's planes, each π_x·v_x broadcast across U's row x, or a tip's
// prep-table row; the q factor bq_k = Σ_y U⁻¹[k][y]·v_y as COLDOT over
// uit, the transpose of U⁻¹, or a tip's row; the site's row of st is
// ap·bq. An operand's planes are read only if it is no tip, its tip
// codes only if it is one.
TEXT ·lanePSRPrepare(SB), NOSPLIT, $0-232
	MOVQ  n+200(FP), BX
	TESTQ BX, BX
	JZ    none
	MOVQ  lo+192(FP), AX
	MOVQ  st_base+0(FP), DX
	MOVQ  AX, CX
	SHLQ  $5, CX
	ADDQ  CX, DX
	MOVQ  p_base+24(FP), SI
	LEAQ  (SI)(AX*8), SI
	MOVQ  q_base+104(FP), DI
	LEAQ  (DI)(AX*8), DI
	MOVQ  tipsP_base+48(FP), R10
	ADDQ  AX, R10
	MOVQ  tipsQ_base+128(FP), R12
	ADDQ  AX, R12
	STRIDE(stride+184(FP))
	MOVQ  tabP_base+72(FP), R11
	MOVQ  tabQ_base+152(FP), R13
	MOVQ  uit+216(FP), R14
	MOVQ  u+208(FP), AX
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11
	MOVQ         freqs+224(FP), AX
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	XORQ         CX, CX

loop:
	CMPB tipP+96(FP), $0
	JNE  tipp
	PITERM((SI), Y12, Y8, Y2)
	PITERM((SI)(R8*1), Y13, Y9, Y1)
	VADDPD Y1, Y2, Y2
	PITERM((SI)(R8*2), Y14, Y10, Y1)
	VADDPD Y1, Y2, Y2
	PITERM((SI)(R9*1), Y15, Y11, Y1)
	VADDPD Y1, Y2, Y2
	JMP    qside

tipp:
	MOVBQZX (R10)(CX*1), AX
	SHLQ    $5, AX
	VMOVUPD (R11)(AX*1), Y2

qside:
	CMPB tipQ+176(FP), $0
	JNE  tipq
	PLANEDOT(R14, DI, Y3, Y1)
	JMP  store

tipq:
	MOVBQZX (R12)(CX*1), AX
	SHLQ    $5, AX
	VMOVUPD (R13)(AX*1), Y3

store:
	VMULPD  Y3, Y2, Y2
	VMOVUPD Y2, (DX)
	ADDQ    $32, DX
	ADDQ    $8, SI
	ADDQ    $8, DI
	INCQ    CX
	CMPQ    CX, BX
	JNE     loop
	VZEROUPPER

none:
	RET

// ROWS4 loads the 4-double rows at M0..M3 into A0..A3 and transposes them
// there: lane j of Ai is entry i of row j. T0..T3 are clobbered.
#define ROWS4(M0, M1, M2, M3, A0, A1, A2, A3, T0, T1, T2, T3) \
	VMOVUPD    M0, A0; \
	VMOVUPD    M1, A1; \
	VMOVUPD    M2, A2; \
	VMOVUPD    M3, A3; \
	VUNPCKLPD  A1, A0, T0; \
	VUNPCKHPD  A1, A0, T1; \
	VUNPCKLPD  A3, A2, T2; \
	VUNPCKHPD  A3, A2, T3; \
	VPERM2F128 $0x20, T2, T0, A0; \
	VPERM2F128 $0x20, T3, T1, A1; \
	VPERM2F128 $0x31, T2, T0, A2; \
	VPERM2F128 $0x31, T3, T1, A3

DATA psrTwo52<>+0(SB)/8, $0x4330000000000000
GLOBL psrTwo52<>(SB), RODATA|NOPTR, $8

// func lanePSRDerivatives(terms []siteTerms, st []float64, cats, w []int, lo, n int, ex, lam [][4]float64)
//
// The per-site terms of the PSR derivative, in site lanes, for sites
// lo..lo+n−1, n a multiple of 4, into terms[0..n/4): four sites' sum-table
// rows and the ex and λ rows of their categories transposed to one
// register per eigen index, then per lane, each with the Go loop's
// expression and no FMA, t_k = st_k·ex_k, f = ((t0+t1)+t2)+t3, f′ = Σ
// λ_k·t_k and f″ = Σ (λ_k·λ_k)·t_k summed the same way, d1 = w·(f′/f) and
// d2 = w·(f″/f − (f′/f)²), w converted exactly for 0 <= w < 2^52 (w | 2^52
// as a double, − 2^52). Bit j of a group's ok says its site j has f > 0
// (an ordered compare: false for NaN); the Go loop sums d1 and d2 over
// exactly those sites, in site order.
TEXT ·lanePSRDerivatives(SB), NOSPLIT, $0-160
	MOVQ  n+104(FP), CX
	SHRQ  $2, CX
	JZ    none
	MOVQ  lo+96(FP), AX
	MOVQ  terms_base+0(FP), DX
	MOVQ  st_base+24(FP), R8
	MOVQ  AX, BX
	SHLQ  $5, BX
	ADDQ  BX, R8
	MOVQ  cats_base+48(FP), R9
	LEAQ  (R9)(AX*8), R9
	MOVQ  w_base+72(FP), R10
	LEAQ  (R10)(AX*8), R10
	MOVQ  ex_base+112(FP), R13
	MOVQ  lam_base+136(FP), R14
	VPXOR        Y15, Y15, Y15
	VBROADCASTSD psrTwo52<>(SB), Y14

loop:
	// t_k = st_k · ex_k
	ROWS4(0(R8), 32(R8), 64(R8), 96(R8), Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	MOVQ (R9), AX
	MOVQ 8(R9), BX
	MOVQ 16(R9), R11
	MOVQ 24(R9), R12
	SHLQ $5, AX
	SHLQ $5, BX
	SHLQ $5, R11
	SHLQ $5, R12
	ROWS4((R13)(AX*1), (R13)(BX*1), (R13)(R11*1), (R13)(R12*1), Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VMULPD Y4, Y0, Y0
	VMULPD Y5, Y1, Y1
	VMULPD Y6, Y2, Y2
	VMULPD Y7, Y3, Y3
	ROWS4((R14)(AX*1), (R14)(BX*1), (R14)(R11*1), (R14)(R12*1), Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

	// f
	VADDPD Y1, Y0, Y8
	VADDPD Y2, Y8, Y8
	VADDPD Y3, Y8, Y8

	// f′
	VMULPD Y0, Y4, Y9
	VMULPD Y1, Y5, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y2, Y6, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y3, Y7, Y10
	VADDPD Y10, Y9, Y9

	// f″
	VMULPD Y4, Y4, Y10
	VMULPD Y0, Y10, Y10
	VMULPD Y5, Y5, Y11
	VMULPD Y1, Y11, Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y6, Y6, Y11
	VMULPD Y2, Y11, Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y7, Y7, Y11
	VMULPD Y3, Y11, Y11
	VADDPD Y11, Y10, Y10

	// ok: f > 0
	VCMPPD    $0x1E, Y15, Y8, Y11
	VMOVMSKPD Y11, AX
	MOVB      AX, siteTerms_ok(DX)

	// w
	VMOVDQU (R10), Y12
	VPOR    Y14, Y12, Y12
	VSUBPD  Y14, Y12, Y12

	// d1 = w·ratio, d2 = w·(f″/f − ratio·ratio)
	VDIVPD  Y8, Y9, Y9
	VDIVPD  Y8, Y10, Y10
	VMULPD  Y9, Y9, Y11
	VSUBPD  Y11, Y10, Y10
	VMULPD  Y10, Y12, Y10
	VMULPD  Y9, Y12, Y9
	VMOVUPD Y9, siteTerms_d1(DX)
	VMOVUPD Y10, siteTerms_d2(DX)

	ADDQ $siteTerms__size, DX
	ADDQ $128, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ CX
	JNZ  loop
	VZEROUPPER

none:
	RET
