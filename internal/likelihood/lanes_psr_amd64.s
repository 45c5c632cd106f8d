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
