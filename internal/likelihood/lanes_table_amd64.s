#include "textflag.h"

// The set-up tables in lanes: the P matrices of a batch (laneAssemble, for
// pSet.flush) and a tip's lookup table (laneTipTable, for fillTipTable).
// Each entry is the Go expression it replaces — Eigen.Assemble's and
// fillTipTable's — with the same operands in the same order, products and
// sums rounded one by one, without FMA, so it has the same bits
// (TestLaneAssembleMatchesAssemble, TestLaneTipTableMatchesGoFill).

DATA tabOne<>+0(SB)/8, $1.0
GLOBL tabOne<>(SB), RODATA|NOPTR, $8

// ASMROW writes row x of a row-major P matrix at DI, lanes over y:
// ((((0 + a0·UInv[0][y]) + a1·UInv[1][y]) + a2·UInv[2][y]) + Stat[x][y],
// a_k = U[x][k]·ex[k] broadcast, UInv's rows in Y8–Y10 and ex[k] in
// Y11–Y13; then the clamp of CLAMPSTORE.
#define ASMROW(x) \
	VBROADCASTSD (x*32)(R8), Y0; \
	VMULPD       Y11, Y0, Y0; \
	VMULPD       Y8, Y0, Y0; \
	VADDPD       Y0, Y15, Y0; \
	VBROADCASTSD (x*32+8)(R8), Y1; \
	VMULPD       Y12, Y1, Y1; \
	VMULPD       Y9, Y1, Y1; \
	VADDPD       Y1, Y0, Y0; \
	VBROADCASTSD (x*32+16)(R8), Y1; \
	VMULPD       Y13, Y1, Y1; \
	VMULPD       Y10, Y1, Y1; \
	VADDPD       Y1, Y0, Y0; \
	VADDPD       (x*32)(R10), Y0, Y0; \
	CLAMPSTORE(x)

// ASMCOL writes row y of a transposed P matrix — column y of P — at DI,
// lanes over x: the same sum, A_k = (U's column k)·ex[k] in Y8–Y10,
// UInv[k][y] broadcast, and StatT's row y (Stat's column y).
#define ASMCOL(y) \
	VBROADCASTSD (y*8)(R9), Y0; \
	VMULPD       Y0, Y8, Y0; \
	VADDPD       Y0, Y15, Y0; \
	VBROADCASTSD (32+y*8)(R9), Y1; \
	VMULPD       Y1, Y9, Y1; \
	VADDPD       Y1, Y0, Y0; \
	VBROADCASTSD (64+y*8)(R9), Y1; \
	VMULPD       Y1, Y10, Y1; \
	VADDPD       Y1, Y0, Y0; \
	VADDPD       (y*32)(R10), Y0, Y0; \
	CLAMPSTORE(y)

// CLAMPSTORE clamps Y0 to [0, 1] and stores it as row r of the matrix at
// DI. MAXPD and MINPD return their second source unless the first one
// wins the comparison, so with Y0 second (the first operand in Go's
// order) a NaN or a −0 passes through both: exactly Go's
// `if v < 0 { v = 0 } else if v > 1 { v = 1 }`.
#define CLAMPSTORE(r) \
	VMAXPD  Y0, Y15, Y0; \
	VMINPD  Y0, Y14, Y0; \
	VMOVUPD Y0, (r*32)(DI)

// func laneAssemble(dst [][ns * ns]float64, ex []float64, u, uinv, stat *[ns * ns]float64, transpose bool)
//
// Writes dst[i] = Eigen.Assemble(ex[3i:3i+3]) for every i < len(dst). Row-
// major (transpose false) u and stat are Eigen.U and Eigen.Stat, and each
// row is one vector over y. Transposed, they are Eigen.UT and
// Eigen.StatT: A_k = U's column k times ex[k] is formed once per matrix,
// and each row of the stored matrix is one vector over x.
TEXT ·laneAssemble(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ ex_base+24(FP), SI
	MOVQ u+48(FP), R8
	MOVQ uinv+56(FP), R9
	MOVQ stat+64(FP), R10
	TESTQ CX, CX
	JZ    asmDone
	VXORPD       Y15, Y15, Y15
	VBROADCASTSD tabOne<>(SB), Y14
	CMPB         transpose+72(FP), $0
	JNE          asmCols

	VMOVUPD 0(R9), Y8
	VMOVUPD 32(R9), Y9
	VMOVUPD 64(R9), Y10

asmRows:
	VBROADCASTSD 0(SI), Y11
	VBROADCASTSD 8(SI), Y12
	VBROADCASTSD 16(SI), Y13
	ASMROW(0)
	ASMROW(1)
	ASMROW(2)
	ASMROW(3)
	ADDQ $24, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  asmRows
	VZEROUPPER
	RET

asmCols:
	VMOVUPD 0(R8), Y4
	VMOVUPD 32(R8), Y5
	VMOVUPD 64(R8), Y6

asmColsLoop:
	VBROADCASTSD 0(SI), Y11
	VMULPD       Y11, Y4, Y8
	VBROADCASTSD 8(SI), Y11
	VMULPD       Y11, Y5, Y9
	VBROADCASTSD 16(SI), Y11
	VMULPD       Y11, Y6, Y10
	ASMCOL(0)
	ASMCOL(1)
	ASMCOL(2)
	ASMCOL(3)
	ADDQ $24, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  asmColsLoop
	VZEROUPPER

asmDone:
	RET

// func laneTipTable(dst []float64, pm [][ns * ns]float64, tipVec *[16][ns]float64, mask uint16, catMask []uint16, cols bool)
//
// Fills the tip table of fillTipTable: for every category c < len(pm) and
// every code in c's mask — catMask[c] when catMask is not empty, else
// mask — dst[(c·16+code)·4 + x] = ((P[x][0]·v0 + P[x][1]·v1) + P[x][2]·v2)
// + P[x][3]·v3, v = tipVec[code] broadcast, lanes over x. The columns of
// P are the rows of pm[c] when cols (PSR, stored transposed); otherwise
// (Γ) pm[c]'s rows are transposed in registers, GATHER4's unpack and
// permute. Entries of codes outside a mask are not written.
TEXT ·laneTipTable(SB), NOSPLIT, $0-89
	MOVQ    dst_base+0(FP), DI
	MOVQ    pm_base+24(FP), SI
	MOVQ    pm_len+32(FP), CX
	MOVQ    tipVec+48(FP), R8
	MOVWQZX mask+56(FP), R9
	MOVQ    catMask_base+64(FP), R10
	MOVQ    catMask_len+72(FP), R11
	MOVBQZX cols+88(FP), R12
	TESTQ   CX, CX
	JZ      tipDone

tipCat:
	MOVQ  R9, BX
	TESTQ R11, R11
	JZ    tipMask
	MOVWQZX (R10), BX
	ADDQ    $2, R10

tipMask:
	TESTQ BX, BX
	JZ    tipNext
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	TESTQ   R12, R12
	JNZ     tipCode
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3

tipCode:
	BSFQ BX, DX
	LEAQ -1(BX), AX
	ANDQ AX, BX
	SHLQ $5, DX
	VBROADCASTSD 0(R8)(DX*1), Y8
	VMULPD       Y8, Y0, Y8
	VBROADCASTSD 8(R8)(DX*1), Y9
	VMULPD       Y9, Y1, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 16(R8)(DX*1), Y9
	VMULPD       Y9, Y2, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 24(R8)(DX*1), Y9
	VMULPD       Y9, Y3, Y9
	VADDPD       Y9, Y8, Y8
	VMOVUPD      Y8, (DI)(DX*1)
	TESTQ        BX, BX
	JNZ          tipCode

tipNext:
	ADDQ $128, SI
	ADDQ $512, DI
	DECQ CX
	JNZ  tipCat
	VZEROUPPER

tipDone:
	RET
