#include "textflag.h"
#include "go_asm.h"

// AVX2 lanes of the Γ block workers (lanes.go). Each routine computes the
// first n sites (n a multiple of 4) of a block's site loop — one
// category's (the evaluation and the sum-table fill), or every category's
// (the Newview, the candidate and the derivative) — four sites per
// instruction: lane i holds site j+i and evaluates the Go loop's
// expression for that site with the same operands in the same order —
// products included, no FMA — so every value it writes has the bits the
// Go loop would have written. n == 0 returns before the first vector
// instruction, so a call that does no sites is safe on any CPU. Each
// routine serves every operand shape of its worker: a flag per side that
// may be a tip selects, per group, GATHER4 of its table rows or its
// planes, and the side's pointer register steps over its codes or its
// planes accordingly.
//
// Shared register use: R8 is the plane stride in bytes and R9 three times
// it, so (B), (B)(R8*1), (B)(R8*2), (B)(R9*1) are the four state planes of
// a category at site pointer B (the four eigen planes of a category of a
// sum table); CX counts the 4-site groups left. In the Newview and
// candidate routines Y13 gathers the scale test of a group; Y12 holds catW
// and Y14 a group's per-site accumulators where a routine has them.

// DOT4 sets ACC to ((P[o]·V0 + P[o+1]·V1) + P[o+2]·V2) + P[o+3]·V3 — row
// o/4 of a P matrix times a column, the workers' four-term sum — and
// clobbers TMP.
#define DOT4(P, o, V0, V1, V2, V3, ACC, TMP) \
	VBROADCASTSD (o*8)(P), ACC; \
	VMULPD       V0, ACC, ACC; \
	VBROADCASTSD (o*8+8)(P), TMP; \
	VMULPD       V1, TMP, TMP; \
	VADDPD       TMP, ACC, ACC; \
	VBROADCASTSD (o*8+16)(P), TMP; \
	VMULPD       V2, TMP, TMP; \
	VADDPD       TMP, ACC, ACC; \
	VBROADCASTSD (o*8+24)(P), TMP; \
	VMULPD       V3, TMP, TMP; \
	VADDPD       TMP, ACC, ACC

// LOAD4 loads four sites of the four state planes at B.
#define LOAD4(B, V0, V1, V2, V3) \
	VMOVUPD (B), V0; \
	VMOVUPD (B)(R8*1), V1; \
	VMOVUPD (B)(R8*2), V2; \
	VMOVUPD (B)(R9*1), V3

// GATHER4 loads the 4-double table rows of the codes at TIPS[0..3] —
// TAB[code·4 .. code·4+3], one 32-byte load per site — and transposes
// them, so Xx holds entry x of the four sites' rows. T0–T3 are clobbered.
#define GATHER4(TIPS, TAB, X0, X1, X2, X3, T0, T1, T2, T3) \
	MOVBQZX    0(TIPS), AX; \
	SHLQ       $5, AX; \
	VMOVUPD    (TAB)(AX*1), X0; \
	MOVBQZX    1(TIPS), AX; \
	SHLQ       $5, AX; \
	VMOVUPD    (TAB)(AX*1), X1; \
	MOVBQZX    2(TIPS), AX; \
	SHLQ       $5, AX; \
	VMOVUPD    (TAB)(AX*1), X2; \
	MOVBQZX    3(TIPS), AX; \
	SHLQ       $5, AX; \
	VMOVUPD    (TAB)(AX*1), X3; \
	VUNPCKLPD  X1, X0, T0; \
	VUNPCKHPD  X1, X0, T1; \
	VUNPCKLPD  X3, X2, T2; \
	VUNPCKHPD  X3, X2, T3; \
	VPERM2F128 $0x20, T2, T0, X0; \
	VPERM2F128 $0x20, T3, T1, X1; \
	VPERM2F128 $0x31, T2, T0, X2; \
	VPERM2F128 $0x31, T3, T1, X3

// SCALETEST ORs the lanes of V that are >= ScaleThreshold or NaN into
// Y13: predicate NLT_UQ (0x15) is !(v < threshold), exactly the Go test
// v >= ScaleThreshold || v != v. TMP is clobbered.
#define SCALETEST(V, TMP) \
	VCMPPD $0x15, ·laneThresh(SB), V, TMP; \
	VORPD  TMP, Y13, Y13

// NOSCALE ORs the group's scale test into noScale[0..3] at NS: the 4-bit
// lane mask, each bit i multiplied to bit 8i (no two shifted copies of
// the mask overlap, so nothing carries), is one 0/1 byte per site.
#define NOSCALE(NS) \
	VMOVMSKPD Y13, AX; \
	IMULL     $0x204081, AX; \
	ANDL      $0x01010101, AX; \
	ORL       AX, NS

// TERM adds ((F·V)·X)·catW to the accumulators Y14, the order of the
// workers' `site += freq * v * x * catW`. F is a memory operand; Y9 is
// clobbered.
#define TERM(F, V, X) \
	VBROADCASTSD F, Y9; \
	VMULPD       V, Y9, Y9; \
	VMULPD       X, Y9, Y9; \
	VMULPD       Y12, Y9, Y9; \
	VADDPD       Y9, Y14, Y14

// STRIDE loads the plane stride (in doubles) from S into R8 and R9 as
// bytes, once and three times.
#define STRIDE(S) \
	MOVQ S, R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9

// ROWS4 sets A0–A3 to the four rows of the P matrix at P times the column
// V0–V3, DOT4 each: a side's P·v factors of a group. TMP is clobbered.
#define ROWS4(P, V0, V1, V2, V3, A0, A1, A2, A3, TMP) \
	DOT4(P, 0, V0, V1, V2, V3, A0, TMP); \
	DOT4(P, 4, V0, V1, V2, V3, A1, TMP); \
	DOT4(P, 8, V0, V1, V2, V3, A2, TMP); \
	DOT4(P, 12, V0, V1, V2, V3, A3, TMP)

// NVROW stores row x of a Newview group at DST, v = la_x·lb_x with the
// two sides' row factors in LA and LB, and scale-tests it.
#define NVROW(LA, LB, DST) \
	VMULPD  LB, LA, Y8; \
	VMOVUPD Y8, DST; \
	SCALETEST(Y8, Y9)

// func laneNewview(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, pa, pb *[4][16]float64, noScale []bool, sa, sb, ds []int32, n int) (rescale bool)
//
// The Γ Newview of a block, every operand shape, for its first n sites (n
// a multiple of 4) from the first plane at d, a and b, the four categories
// in turn: plane x of category c of d is la_x·lb_x. A side's row factors
// la (lb) are GATHER4 of its P·tipVec table rows — category c's rows start
// at entry c·64 of tabA (tabB) — if it is a tip, or ROWS4 of matrix c of
// pa (pb) over its planes if it is inner. An operand's planes are read
// only if it is no tip, its tip codes and table only if it is one. Each
// group's scale tests are ORed into noScale per category; then ds = sa +
// sb + 1 − noScale per site, and rescale reports a site whose flag is 0.
// SI and DI walk a side's planes (32 bytes a group) or its codes (4
// bytes), BX and R14 hold the step; R10 and R11 hold matrix c of pa and
// pb or category c's rows of the tables; R13 is category c's plane offset
// in bytes.
TEXT ·laneNewview(SB), NOSPLIT, $0-313
	MOVB $0, rescale+312(FP)
	MOVQ n+304(FP), CX
	SHRQ $2, CX
	JZ   none
	STRIDE(stride+184(FP))
	MOVQ pa+192(FP), R10
	CMPB tipA+96(FP), $0
	JEQ  2(PC)
	MOVQ tabA_base+72(FP), R10
	MOVQ pb+200(FP), R11
	CMPB tipB+176(FP), $0
	JEQ  2(PC)
	MOVQ tabB_base+152(FP), R11
	XORQ R13, R13

cat:
	MOVQ n+304(FP), CX
	SHRQ $2, CX
	MOVQ d_base+0(FP), DX
	ADDQ R13, DX
	MOVQ noScale_base+208(FP), R12
	MOVQ a_base+24(FP), SI
	ADDQ R13, SI
	MOVQ $32, BX
	CMPB tipA+96(FP), $0
	JEQ  binit
	MOVQ tipsA_base+48(FP), SI
	MOVQ $4, BX

binit:
	MOVQ b_base+104(FP), DI
	ADDQ R13, DI
	MOVQ $32, R14
	CMPB tipB+176(FP), $0
	JEQ  loop
	MOVQ tipsB_base+128(FP), DI
	MOVQ $4, R14

loop:
	VXORPD Y13, Y13, Y13
	CMPB   tipA+96(FP), $0
	JNE    tipa
	LOAD4(SI, Y8, Y9, Y10, Y11)
	ROWS4(R10, Y8, Y9, Y10, Y11, Y0, Y1, Y2, Y3, Y12)
	JMP    bside

tipa:
	GATHER4(SI, R10, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)

bside:
	CMPB tipB+176(FP), $0
	JNE  tipb
	LOAD4(DI, Y8, Y9, Y10, Y11)
	ROWS4(R11, Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7, Y12)
	JMP  product

tipb:
	GATHER4(DI, R11, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

product:
	NVROW(Y0, Y4, (DX))
	NVROW(Y1, Y5, (DX)(R8*1))
	NVROW(Y2, Y6, (DX)(R8*2))
	NVROW(Y3, Y7, (DX)(R9*1))
	NOSCALE((R12))
	ADDQ BX, SI
	ADDQ R14, DI
	ADDQ $32, DX
	ADDQ $4, R12
	DECQ CX
	JNZ  loop

	// Next category: a matrix is 128 bytes, a category's table rows 512.
	MOVQ $128, AX
	CMPB tipA+96(FP), $0
	JEQ  2(PC)
	MOVQ $512, AX
	ADDQ AX, R10
	MOVQ $128, AX
	CMPB tipB+176(FP), $0
	JEQ  2(PC)
	MOVQ $512, AX
	ADDQ AX, R11
	LEAQ (R13)(R8*4), R13
	MOVQ R8, AX
	SHLQ $4, AX
	CMPQ R13, AX
	JNE  cat

	// The scale counts, four sites a group: ds = sa + sb + 1 − flag, and
	// R13 collects the flags' bytes that are not 1.
	MOVQ         n+304(FP), CX
	SHRQ         $2, CX
	MOVQ         noScale_base+208(FP), R12
	MOVQ         sa_base+232(FP), SI
	MOVQ         sb_base+256(FP), DI
	MOVQ         ds_base+280(FP), DX
	XORL         R13, R13
	MOVL         $1, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, X12

counts:
	MOVL      (R12), AX
	VMOVD     AX, X8
	XORL      $0x01010101, AX
	ORL       AX, R13
	VPMOVZXBD X8, X8
	VMOVDQU   (SI), X9
	VPADDD    (DI), X9, X9
	VPADDD    X12, X9, X9
	VPSUBD    X8, X9, X9
	VMOVDQU   X9, (DX)
	ADDQ      $4, R12
	ADDQ      $16, SI
	ADDQ      $16, DI
	ADDQ      $16, DX
	DECQ      CX
	JNZ       counts
	TESTL     R13, R13
	SETNE     rescale+312(FP)
	VZEROUPPER

none:
	RET

// SCORE4 is row o/4 of the insertion score: Newview's v = (P·near)·lb
// with the matrix at P, the near column in Y0–Y3 and the far side's row
// factor in LB, scale-tested, then the term ((f·v)·t)·catW with t the
// insertion table's plane at T.
#define SCORE4(P, o, LB, F, T) \
	DOT4(P, o, Y0, Y1, Y2, Y3, Y8, Y9); \
	VMULPD LB, Y8, Y8; \
	SCALETEST(Y8, Y9); \
	TERM(F, Y8, T)

// NEARROW stores row x of a group's near vector, la_x·lb_x with the two
// sides' row factors in LA and LB, to the near buffer at R13 at byte O of
// category c's rows (BX = c·128: the buffer holds plane (c, x) at
// c·128 + x·32) and scale-tests it.
#define NEARROW(LA, LB, O) \
	VMULPD  LB, LA, LA; \
	VMOVUPD LA, (O)(R13)(BX*1); \
	SCALETEST(LA, Y8)

// func laneCandidate(d []float64, nds []int32, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, sa, sb []int32, f []float64, tipsF []msa.State, tabF []float64, tipF bool, t []float64, stride int, pa, pb, ph *[4][16]float64, freqs *[4]float64, catW float64, site []float64, noScale []bool, n int)
//
// One SPR candidate of a Γ block for its first n sites (n a multiple of 4),
// a group of four sites at a time, j its first:
//
//   - the near vector: laneNewview's value of every category from a and b
//     into the 512-byte frame, its scale tests ORed;
//   - its scaling: a site none of whose entries passed has every entry
//     multiplied by ScaleFactor (the others by 1.0, which changes no bit),
//     and nds[j..j+3] = sa + sb plus one at such a site;
//   - the score: per category the near column, stored to d's planes, the
//     far row factors lb from f's planes over ph or, if tipF, GATHER4 of
//     tabF, and evaluation's four terms against the insertion table t
//     added to site[j..j+3], the inserted vertex's scale tests ORed into
//     noScale.
//
// BX is category c's matrix offset (c·128: its table rows are at c·512),
// R11 its plane offset in bytes, DX the group's first site; R10 holds
// freqs, R13 the frame from its first 32-byte boundary on, so that no
// store or load of the near buffer splits a cache line.
TEXT ·laneCandidate(SB), $544-464
	MOVQ n+456(FP), CX
	SHRQ $2, CX
	JZ   none
	LEAQ 31(SP), R13
	ANDQ $-32, R13
	STRIDE(stride+360(FP))
	XORQ DX, DX

group:
	VXORPD Y13, Y13, Y13
	XORQ   BX, BX
	XORQ   R11, R11

near:
	CMPB tipA+120(FP), $0
	JNE  neartipa
	MOVQ a_base+48(FP), SI
	LEAQ (SI)(DX*8), SI
	ADDQ R11, SI
	LOAD4(SI, Y8, Y9, Y10, Y11)
	MOVQ pa+368(FP), DI
	ADDQ BX, DI
	ROWS4(DI, Y8, Y9, Y10, Y11, Y0, Y1, Y2, Y3, Y12)
	JMP  nearb

neartipa:
	MOVQ tipsA_base+72(FP), SI
	ADDQ DX, SI
	MOVQ tabA_base+96(FP), DI
	LEAQ (DI)(BX*4), DI
	GATHER4(SI, DI, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)

nearb:
	CMPB tipB+200(FP), $0
	JNE  neartipb
	MOVQ b_base+128(FP), SI
	LEAQ (SI)(DX*8), SI
	ADDQ R11, SI
	LOAD4(SI, Y8, Y9, Y10, Y11)
	MOVQ pb+376(FP), DI
	ADDQ BX, DI
	ROWS4(DI, Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7, Y12)
	JMP  nearrows

neartipb:
	MOVQ tipsB_base+152(FP), SI
	ADDQ DX, SI
	MOVQ tabB_base+176(FP), DI
	LEAQ (DI)(BX*4), DI
	GATHER4(SI, DI, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

nearrows:
	NEARROW(Y0, Y4, 0)
	NEARROW(Y1, Y5, 32)
	NEARROW(Y2, Y6, 64)
	NEARROW(Y3, Y7, 96)
	ADDQ $128, BX
	LEAQ (R11)(R8*4), R11
	CMPQ BX, $512
	JNE  near

	// Rescale the sites none of whose entries passed: Y10 is 1.0 in a
	// lane that passed, ScaleFactor in one that did not.
	VMOVMSKPD Y13, AX
	CMPL      AX, $15
	JEQ       counts
	MOVQ      $0x3ff0000000000000, AX
	VMOVQ     AX, X9
	VBROADCASTSD X9, Y9
	VMOVUPD   ·laneScale(SB), Y8
	VBLENDVPD Y13, Y9, Y8, Y10
	XORQ      AX, AX

rescale:
	VMULPD  (R13)(AX*1), Y10, Y11
	VMOVUPD Y11, (R13)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, $512
	JNE     rescale

counts:
	VMOVMSKPD Y13, AX
	XORL      $15, AX
	IMULL     $0x204081, AX
	ANDL      $0x01010101, AX
	VMOVD     AX, X8
	VPMOVZXBD X8, X8
	MOVQ      sa_base+208(FP), SI
	VMOVDQU   (SI)(DX*4), X9
	MOVQ      sb_base+232(FP), SI
	VPADDD    (SI)(DX*4), X9, X9
	VPADDD    X8, X9, X9
	MOVQ      nds_base+24(FP), SI
	VMOVDQU   X9, (SI)(DX*4)

	// The score, from the near buffer.
	MOVQ         site_base+408(FP), SI
	VMOVUPD      (SI)(DX*8), Y14
	VXORPD       Y13, Y13, Y13
	VBROADCASTSD catW+400(FP), Y12
	MOVQ         freqs+392(FP), R10
	XORQ         BX, BX
	XORQ         R11, R11

score:
	VMOVUPD (R13)(BX*1), Y0
	VMOVUPD 32(R13)(BX*1), Y1
	VMOVUPD 64(R13)(BX*1), Y2
	VMOVUPD 96(R13)(BX*1), Y3
	MOVQ    d_base+0(FP), SI
	LEAQ    (SI)(DX*8), SI
	ADDQ    R11, SI
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, (SI)(R8*1)
	VMOVUPD Y2, (SI)(R8*2)
	VMOVUPD Y3, (SI)(R9*1)
	MOVQ    ph+384(FP), DI
	ADDQ BX, DI
	CMPB tipF+328(FP), $0
	JNE  fartip
	MOVQ f_base+256(FP), SI
	LEAQ (SI)(DX*8), SI
	ADDQ R11, SI
	LOAD4(SI, Y8, Y9, Y10, Y11)
	ROWS4(DI, Y8, Y9, Y10, Y11, Y4, Y5, Y6, Y7, Y15)
	JMP  terms

fartip:
	MOVQ tipsF_base+280(FP), SI
	ADDQ DX, SI
	MOVQ tabF_base+304(FP), AX
	LEAQ (AX)(BX*4), R12
	GATHER4(SI, R12, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

terms:
	MOVQ t_base+336(FP), SI
	LEAQ (SI)(DX*8), SI
	ADDQ R11, SI
	SCORE4(DI, 0, Y4, 0(R10), (SI))
	SCORE4(DI, 4, Y5, 8(R10), (SI)(R8*1))
	SCORE4(DI, 8, Y6, 16(R10), (SI)(R8*2))
	SCORE4(DI, 12, Y7, 24(R10), (SI)(R9*1))
	ADDQ $128, BX
	LEAQ (R11)(R8*4), R11
	CMPQ BX, $512
	JNE  score

	MOVQ    site_base+408(FP), SI
	VMOVUPD Y14, (SI)(DX*8)
	MOVQ    noScale_base+432(FP), SI
	NOSCALE((SI)(DX*1))
	ADDQ    $4, DX
	DECQ    CX
	JNZ     group
	VZEROUPPER

none:
	RET

// EVALTERM adds state x's term ((f·p_x)·right_x)·catW to the accumulators
// Y14, the near factor p_x in PX and right_x in RX.
#define EVALTERM(F, PX, RX) \
	VBROADCASTSD F, Y10; \
	VMULPD       PX, Y10, Y10; \
	VMULPD       RX, Y10, Y10; \
	VMULPD       Y12, Y10, Y10; \
	VADDPD       Y10, Y14, Y14

// func laneEvaluate(site, p []float64, tipsP []msa.State, tipVec *[16][4]float64, tipP bool, q []float64, tipsQ []msa.State, tab []float64, tipQ bool, toff, stride int, pm *[16]float64, f0, f1, f2, f3, catW float64, n int)
//
// The Γ evaluation of one category, every operand shape, for the first n
// sites (n a multiple of 4): the near factors p_x are p's planes, or
// GATHER4 of tipVec rows if tipP; the far factors right_x are ROWS4 of pm
// over q's planes, or GATHER4 of q's table rows (from entry toff of tab)
// if tipQ. SI and DI walk a side's planes or codes, BX and R12 hold the
// step; R11 holds pm or the table.
TEXT ·laneEvaluate(SB), NOSPLIT, $0-240
	MOVQ n+232(FP), CX
	SHRQ $2, CX
	JZ   none
	MOVQ site_base+0(FP), DX
	STRIDE(stride+176(FP))
	VBROADCASTSD catW+224(FP), Y12
	MOVQ p_base+24(FP), SI
	MOVQ $32, BX
	CMPB tipP+80(FP), $0
	JEQ  qinit
	MOVQ tipsP_base+48(FP), SI
	MOVQ tipVec+72(FP), R10
	MOVQ $4, BX

qinit:
	MOVQ q_base+88(FP), DI
	MOVQ pm+184(FP), R11
	MOVQ $32, R12
	CMPB tipQ+160(FP), $0
	JEQ  loop
	MOVQ tipsQ_base+112(FP), DI
	MOVQ tab_base+136(FP), R11
	MOVQ toff+168(FP), AX
	LEAQ (R11)(AX*8), R11
	MOVQ $4, R12

loop:
	VMOVUPD (DX), Y14
	CMPB    tipP+80(FP), $0
	JNE     tipp
	LOAD4(SI, Y4, Y5, Y6, Y7)
	JMP     qside

tipp:
	GATHER4(SI, R10, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

qside:
	CMPB tipQ+160(FP), $0
	JNE  tipq
	LOAD4(DI, Y8, Y9, Y10, Y11)
	ROWS4(R11, Y8, Y9, Y10, Y11, Y0, Y1, Y2, Y3, Y15)
	JMP  terms

tipq:
	GATHER4(DI, R11, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)

terms:
	EVALTERM(f0+192(FP), Y4, Y0)
	EVALTERM(f1+200(FP), Y5, Y1)
	EVALTERM(f2+208(FP), Y6, Y2)
	EVALTERM(f3+216(FP), Y7, Y3)
	VMOVUPD Y14, (DX)
	ADDQ BX, SI
	ADDQ R12, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  loop
	VZEROUPPER

none:
	RET

// PREPROW stores plane o/4 of a category's sum-table fill at DST: the q
// factor bq = U⁻¹ row o/4 · (Y4..Y7), then ap·bq with ap in AP.
#define PREPROW(o, AP, DST) \
	DOT4(BX, o, Y4, Y5, Y6, Y7, Y8, Y9); \
	VMULPD  Y8, AP, Y8; \
	VMOVUPD Y8, DST

// PREPTIP stores plane k of a category's sum-table fill at DST when q is a
// tip: ap·bq with ap_k in AP and bq_k, the tip's prep-table entry, in BQ.
#define PREPTIP(AP, BQ, DST) \
	VMULPD  BQ, AP, Y8; \
	VMOVUPD Y8, DST

// func laneGammaPrepare(st, p []float64, tipsP []msa.State, tabP []float64, tipP bool, q []float64, tipsQ []msa.State, tabQ []float64, tipQ bool, stride int, ut, uinv *[16]float64, freqs *[4]float64, n int)
//
// The Γ sum-table fill of one category, every operand shape, for the first
// n sites (n a multiple of 4) from the category's first plane at st, p and
// q: plane k of st is ap_k·bq_k. The p factor ap_k = ((π0·v0)·U[0][k] +
// (π1·v1)·U[1][k]) + (π2·v2)·U[2][k]) + (π3·v3)·U[3][k] is DOT4 of the
// products π_x·v_x, taken once per group, over row k of ut (U
// transposed), or, for a tip, entry k of its prep-table row; the q factor
// bq_k = Σ_y U⁻¹[k][y]·v_y is DOT4 over row k of uinv, or a tip's entry.
// A tip's rows are category-free: GATHER4 of its codes. An operand's
// planes are read only if it is no tip, its tip codes only if it is one.
// π stays in Y12–Y15.
TEXT ·laneGammaPrepare(SB), NOSPLIT, $0-224
	MOVQ n+216(FP), CX
	SHRQ $2, CX
	JZ   none
	MOVQ st_base+0(FP), DX
	MOVQ p_base+24(FP), SI
	MOVQ tipsP_base+48(FP), R10
	MOVQ tabP_base+72(FP), R11
	MOVQ q_base+104(FP), DI
	MOVQ tipsQ_base+128(FP), R12
	MOVQ tabQ_base+152(FP), R13
	STRIDE(stride+184(FP))
	MOVQ ut+192(FP), R14
	MOVQ uinv+200(FP), BX
	MOVQ freqs+208(FP), AX
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15

loop:
	CMPB tipP+96(FP), $0
	JNE  tipp
	LOAD4(SI, Y8, Y9, Y10, Y11)
	VMULPD Y12, Y8, Y8
	VMULPD Y13, Y9, Y9
	VMULPD Y14, Y10, Y10
	VMULPD Y15, Y11, Y11
	DOT4(R14, 0, Y8, Y9, Y10, Y11, Y0, Y4)
	DOT4(R14, 4, Y8, Y9, Y10, Y11, Y1, Y4)
	DOT4(R14, 8, Y8, Y9, Y10, Y11, Y2, Y4)
	DOT4(R14, 12, Y8, Y9, Y10, Y11, Y3, Y4)
	JMP    qside

tipp:
	GATHER4(R10, R11, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)

qside:
	CMPB tipQ+176(FP), $0
	JNE  tipq
	LOAD4(DI, Y4, Y5, Y6, Y7)
	PREPROW(0, Y0, (DX))
	PREPROW(4, Y1, (DX)(R8*1))
	PREPROW(8, Y2, (DX)(R8*2))
	PREPROW(12, Y3, (DX)(R9*1))
	JMP  next

tipq:
	GATHER4(R12, R13, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	PREPTIP(Y0, Y4, (DX))
	PREPTIP(Y1, Y5, (DX)(R8*1))
	PREPTIP(Y2, Y6, (DX)(R8*2))
	PREPTIP(Y3, Y7, (DX)(R9*1))

next:
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, R10
	ADDQ $4, R12
	DECQ CX
	JNZ  loop
	VZEROUPPER

none:
	RET

DATA gammaTwo52<>+0(SB)/8, $0x4330000000000000
GLOBL gammaTwo52<>(SB), RODATA|NOPTR, $8

// DTERM adds eigen term k of a category to a group's sums: t = st·ex_k
// with the four sites' entries at ST and ex_k at byte K of the category's
// row at O(SI), then f = f + t, f′ = f′ + λ_k·t and f″ = f″ + (λ_k·λ_k)·t
// in Y4, Y5, Y6, λ_k at K of the row at O(DI). Y0 and Y8–Y11 are
// clobbered.
#define DTERM(ST, O, K) \
	VMOVUPD      ST, Y0; \
	VBROADCASTSD (O+K)(SI), Y8; \
	VMULPD       Y8, Y0, Y0; \
	VADDPD       Y0, Y4, Y4; \
	VBROADCASTSD (O+K)(DI), Y9; \
	VMULPD       Y0, Y9, Y10; \
	VADDPD       Y10, Y5, Y5; \
	VMULPD       Y9, Y9, Y11; \
	VMULPD       Y0, Y11, Y11; \
	VADDPD       Y11, Y6, Y6

// DCAT adds the four eigen terms of the category whose planes start at P
// and whose ex and λ rows are at byte O of ex and lam.
#define DCAT(P, O) \
	DTERM((P), O, 0); \
	DTERM((P)(R8*1), O, 8); \
	DTERM((P)(R8*2), O, 16); \
	DTERM((P)(R9*1), O, 24)

// func laneGammaDerivatives(terms []siteTerms, st []float64, w []int, stride, lo, n int, ex, lam *[4][4]float64, catW float64)
//
// The per-site terms of the Γ derivative, in site lanes, for sites
// lo..lo+n−1, n a multiple of 4, into terms[0..n/4), from the plane-major
// sum table st (plane (c, k) at (c·4+k)·stride): per lane, each with the
// Go loop's expression and no FMA, over the categories in order from +0,
// t = st_{c,k}·ex[c][k], f = (((f + t0) + t1) + t2) + t3, f′ and f″ the
// same with λ[c][k]·t and (λ[c][k]·λ[c][k])·t; then f, f′, f″ times catW,
// d1 = w·(f′/f) and d2 = w·(f″/f − (f′/f)²), w converted exactly for
// 0 <= w < 2^52 (w | 2^52 as a double, − 2^52). Bit j of a group's ok
// says its site j has f > 0 (an ordered compare: false for NaN); Go sums
// d1 and d2 over exactly those sites, in site order. R10–R13 point at the
// four categories' first planes.
TEXT ·laneGammaDerivatives(SB), NOSPLIT, $0-120
	MOVQ n+88(FP), CX
	SHRQ $2, CX
	JZ   none
	MOVQ lo+80(FP), AX
	MOVQ terms_base+0(FP), DX
	MOVQ st_base+24(FP), R10
	LEAQ (R10)(AX*8), R10
	STRIDE(stride+72(FP))
	LEAQ (R10)(R8*4), R11
	LEAQ (R11)(R8*4), R12
	LEAQ (R12)(R8*4), R13
	MOVQ w_base+48(FP), R14
	LEAQ (R14)(AX*8), R14
	MOVQ ex+96(FP), SI
	MOVQ lam+104(FP), DI
	VBROADCASTSD catW+112(FP), Y15
	VBROADCASTSD gammaTwo52<>(SB), Y14
	VXORPD       Y13, Y13, Y13

loop:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	DCAT(R10, 0)
	DCAT(R11, 32)
	DCAT(R12, 64)
	DCAT(R13, 96)
	VMULPD Y15, Y4, Y4
	VMULPD Y15, Y5, Y5
	VMULPD Y15, Y6, Y6

	// ok: f > 0
	VCMPPD    $0x1E, Y13, Y4, Y7
	VMOVMSKPD Y7, AX
	MOVB      AX, siteTerms_ok(DX)

	// w
	VMOVDQU (R14), Y12
	VPOR    Y14, Y12, Y12
	VSUBPD  Y14, Y12, Y12

	// d1 = w·ratio, d2 = w·(f″/f − ratio·ratio)
	VDIVPD  Y4, Y5, Y5
	VDIVPD  Y4, Y6, Y6
	VMULPD  Y5, Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VMULPD  Y6, Y12, Y6
	VMULPD  Y5, Y12, Y5
	VMOVUPD Y5, siteTerms_d1(DX)
	VMOVUPD Y6, siteTerms_d2(DX)

	ADDQ $siteTerms__size, DX
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	DECQ CX
	JNZ  loop
	VZEROUPPER

none:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
