#include "textflag.h"

// AVX-512 lanes of the Γ Newview, insertion-score and evaluation workers
// (lanes.go): laneNewview, laneScore and laneEvaluate of lanes_amd64.s
// eight sites wide. Lane i holds site j+i and evaluates the Go loop's
// expression for that site with the same operands in the same order —
// products included, no FMA — so every value it writes has the bits the
// Go loop (and the four-wide routine) would have written. A routine takes
// every site of a category's block: n need not be a multiple of 8, and
// the last group of 1–7 sites runs under the tail mask K1, its loads
// masked and zeroing (a masked-off element is never read, so it cannot
// fault), its stores, tip-code loads and noScale bytes masked. n == 0
// returns before the first vector instruction.
//
// A side that may be a tip keeps the category's table in registers for
// the whole call: TABLE8 loads its 16 codes × 4 states with plain loads
// and turns them state-major in registers, two zmm per state (codes 0–7
// and 8–15), and a group's row factor of state x is one VPERMI2PD of the
// group's codes over the state's two registers — no gather, no
// transpose per group.
//
// Shared register use: R8 is the plane stride in bytes and R9 three
// times it, so (B), (B)(R8*1), (B)(R8*2), (B)(R9*1) are the four state
// planes of a category at site pointer B; CX counts the sites left; K1 is
// the group's lane mask; Z13 holds a group's tip codes. A table a side
// reads from is in Z16–Z23 (the first side, a Newview's a and an
// evaluation's p) or Z24–Z31 (the second), state x's codes 0–7 in the
// first and 8–15 in the second of its pair.

// The VPERMT2PD indices that take, from two zmm holding the rows of four
// consecutive codes, entries 0 and 1 (tableIdx01) or 2 and 3 (tableIdx23)
// of the four rows: four codes of one state, then of the next.
DATA tableIdx01<>+0(SB)/8, $0
DATA tableIdx01<>+8(SB)/8, $4
DATA tableIdx01<>+16(SB)/8, $8
DATA tableIdx01<>+24(SB)/8, $12
DATA tableIdx01<>+32(SB)/8, $1
DATA tableIdx01<>+40(SB)/8, $5
DATA tableIdx01<>+48(SB)/8, $9
DATA tableIdx01<>+56(SB)/8, $13
GLOBL tableIdx01<>(SB), RODATA|NOPTR, $64

DATA tableIdx23<>+0(SB)/8, $2
DATA tableIdx23<>+8(SB)/8, $6
DATA tableIdx23<>+16(SB)/8, $10
DATA tableIdx23<>+24(SB)/8, $14
DATA tableIdx23<>+32(SB)/8, $3
DATA tableIdx23<>+40(SB)/8, $7
DATA tableIdx23<>+48(SB)/8, $11
DATA tableIdx23<>+56(SB)/8, $15
GLOBL tableIdx23<>(SB), RODATA|NOPTR, $64

// TABLEHALF sets S0–S3 to state 0–3 of the eight codes whose rows start
// at byte O of the table at R: per four codes, VPERMT2PD takes states 0
// and 1 (Z12) and states 2 and 3 (Z13) from their rows, and VSHUFF64X2
// joins the two four-code halves of each state. Z8–Z11 are clobbered.
#define TABLEHALF(R, O, S0, S1, S2, S3) \
	VMOVUPD    (O)(R), Z8; \
	VPERMT2PD  (O+64)(R), Z12, Z8; \
	VMOVUPD    (O)(R), Z9; \
	VPERMT2PD  (O+64)(R), Z13, Z9; \
	VMOVUPD    (O+128)(R), Z10; \
	VPERMT2PD  (O+192)(R), Z12, Z10; \
	VMOVUPD    (O+128)(R), Z11; \
	VPERMT2PD  (O+192)(R), Z13, Z11; \
	VSHUFF64X2 $0x44, Z10, Z8, S0; \
	VSHUFF64X2 $0xEE, Z10, Z8, S1; \
	VSHUFF64X2 $0x44, Z11, Z9, S2; \
	VSHUFF64X2 $0xEE, Z11, Z9, S3

// TABLE8 loads the 16-code table of 4-double rows at R (entry code·4+x)
// state-major into L0/H0 … L3/H3: Lx holds state x of codes 0–7, Hx of
// codes 8–15. Z8–Z13 are clobbered.
#define TABLE8(R, L0, H0, L1, H1, L2, H2, L3, H3) \
	VMOVDQU64 tableIdx01<>(SB), Z12; \
	VMOVDQU64 tableIdx23<>(SB), Z13; \
	TABLEHALF(R, 0, L0, L1, L2, L3); \
	TABLEHALF(R, 256, H0, H1, H2, H3)

// LOOKUP8 sets X0–X3 to the table entries of the group's codes at TIPS,
// state x from Lx/Hx: the codes, masked by K1, widen to eight indices in
// Z13, and one VPERMI2PD per state selects code c's entry (bit 3 of c
// picks Hx). A masked-off lane reads code 0.
#define LOOKUP8(TIPS, L0, H0, L1, H1, L2, H2, L3, H3, X0, X1, X2, X3) \
	VMOVDQU8.Z (TIPS), K1, Z13; \
	VPMOVZXBQ  X13, Z13; \
	VMOVDQA64  Z13, X0; \
	VPERMI2PD  H0, L0, X0; \
	VMOVDQA64  Z13, X1; \
	VPERMI2PD  H1, L1, X1; \
	VMOVDQA64  Z13, X2; \
	VPERMI2PD  H2, L2, X2; \
	VMOVDQA64  Z13, X3; \
	VPERMI2PD  H3, L3, X3

// LOAD8 loads the group's sites of the four state planes at B under K1.
#define LOAD8(B, V0, V1, V2, V3) \
	VMOVUPD.Z (B), K1, V0; \
	VMOVUPD.Z (B)(R8*1), K1, V1; \
	VMOVUPD.Z (B)(R8*2), K1, V2; \
	VMOVUPD.Z (B)(R9*1), K1, V3

// DOT8 sets ACC to ((V0·P[o] + V1·P[o+1]) + V2·P[o+2]) + V3·P[o+3] — row
// o/4 of a P matrix times a column, DOT4's sum with each P entry an
// embedded broadcast — and clobbers TMP.
#define DOT8(P, o, V0, V1, V2, V3, ACC, TMP) \
	VMULPD.BCST (o*8)(P), V0, ACC; \
	VMULPD.BCST (o*8+8)(P), V1, TMP; \
	VADDPD      TMP, ACC, ACC; \
	VMULPD.BCST (o*8+16)(P), V2, TMP; \
	VADDPD      TMP, ACC, ACC; \
	VMULPD.BCST (o*8+24)(P), V3, TMP; \
	VADDPD      TMP, ACC, ACC

// ROWS8 sets A0–A3 to the four rows of the P matrix at P times the column
// V0–V3: a side's P·v factors of a group. TMP is clobbered.
#define ROWS8(P, V0, V1, V2, V3, A0, A1, A2, A3, TMP) \
	DOT8(P, 0, V0, V1, V2, V3, A0, TMP); \
	DOT8(P, 4, V0, V1, V2, V3, A1, TMP); \
	DOT8(P, 8, V0, V1, V2, V3, A2, TMP); \
	DOT8(P, 12, V0, V1, V2, V3, A3, TMP)

// SCALE8 sets K to the lanes of V under K1 that are >= ScaleThreshold or
// NaN: predicate NLT_UQ (0x15) against the threshold in Z15.
#define SCALE8(V, K) \
	VCMPPD $0x15, Z15, V, K1, K

// TAILMASK sets K1 to the group's lanes: all eight while CX >= 8, the
// low CX bits for the last group.
#define TAILMASK \
	CMPQ  CX, $8; \
	JAE   5(PC); \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVB AX, K1

// STRIDE loads the plane stride (in doubles) from S into R8 and R9 as
// bytes, once and three times.
#define STRIDE(S) \
	MOVQ S, R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9

// NVROW8 stores row x of a Newview group at DST under K1, v = la_x·lb_x
// with the two sides' row factors in LA and LB, and sets K to its scale
// test.
#define NVROW8(LA, LB, DST, K) \
	VMULPD  LB, LA, Z8; \
	VMOVUPD Z8, K1, DST; \
	SCALE8(Z8, K)

// func laneNewview8(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, toff, stride int, pa, pb *[16]float64, noScale []bool, n int)
//
// laneNewview for every site of a category's block: plane x of d is
// la_x·lb_x. A side's row factors la (lb) are LOOKUP8 of its P·tipVec
// table (the category's rows start at entry toff of tabA, tabB) if it is a
// tip, ROWS8 of pa (pb) over its planes if it is inner. The group's scale
// tests, ORed, store a 1 byte into noScale at each lane that passed (Z14
// holds 1 bytes). SI and DI walk a side's planes (64 bytes a group) or its
// codes (8 bytes), BX and R14 hold the step; R10 and R11 hold pa and pb.
TEXT ·laneNewview8(SB), NOSPLIT, $0-248
	MOVQ  n+240(FP), CX
	TESTQ CX, CX
	JZ    none
	MOVQ  d_base+0(FP), DX
	STRIDE(stride+192(FP))
	MOVQ  noScale_base+216(FP), R12
	MOVQ  a_base+24(FP), SI
	MOVQ  pa+200(FP), R10
	MOVQ  $64, BX
	CMPB  tipA+96(FP), $0
	JEQ   binit
	MOVQ  tipsA_base+48(FP), SI
	MOVQ  tabA_base+72(FP), AX
	MOVQ  toff+184(FP), R13
	LEAQ  (AX)(R13*8), AX
	TABLE8(AX, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	MOVQ  $8, BX

binit:
	MOVQ b_base+104(FP), DI
	MOVQ pb+208(FP), R11
	MOVQ $64, R14
	CMPB tipB+176(FP), $0
	JEQ  consts
	MOVQ tipsB_base+128(FP), DI
	MOVQ tabB_base+152(FP), AX
	MOVQ toff+184(FP), R13
	LEAQ (AX)(R13*8), AX
	TABLE8(AX, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
	MOVQ $8, R14

consts:
	VBROADCASTSD ·laneThresh(SB), Z15
	MOVL         $0x01010101, AX
	VPBROADCASTD AX, Z14
	MOVL         $0xff, AX
	KMOVB        AX, K1

loop:
	TAILMASK
	CMPB tipA+96(FP), $0
	JNE  tipa
	LOAD8(SI, Z8, Z9, Z10, Z11)
	ROWS8(R10, Z8, Z9, Z10, Z11, Z0, Z1, Z2, Z3, Z12)
	JMP  bside

tipa:
	LOOKUP8(SI, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z0, Z1, Z2, Z3)

bside:
	CMPB tipB+176(FP), $0
	JNE  tipb
	LOAD8(DI, Z8, Z9, Z10, Z11)
	ROWS8(R11, Z8, Z9, Z10, Z11, Z4, Z5, Z6, Z7, Z12)
	JMP  product

tipb:
	LOOKUP8(DI, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z4, Z5, Z6, Z7)

product:
	NVROW8(Z0, Z4, (DX), K2)
	NVROW8(Z1, Z5, (DX)(R8*1), K3)
	KORB     K3, K2, K2
	NVROW8(Z2, Z6, (DX)(R8*2), K3)
	KORB     K3, K2, K2
	NVROW8(Z3, Z7, (DX)(R9*1), K3)
	KORB     K3, K2, K2
	VMOVDQU8 Z14, K2, (R12)
	ADDQ     BX, SI
	ADDQ     R14, DI
	ADDQ     $64, DX
	ADDQ     $8, R12
	SUBQ     $8, CX
	JG       loop
	VZEROUPPER

none:
	RET

// SCORE8 is row o/4 of the insertion score: Newview's v = (P·a)·lb with
// the far side's row factor in LB, its scale test into K, then the term
// ((f·v)·t)·catW with f in F and t the insertion table's plane at T added
// to the accumulators Z16. Z8–Z10 are clobbered.
#define SCORE8(o, LB, F, T, K) \
	DOT8(R10, o, Z0, Z1, Z2, Z3, Z8, Z9); \
	VMULPD    LB, Z8, Z8; \
	SCALE8(Z8, K); \
	VMOVUPD.Z T, K1, Z10; \
	VMULPD    Z8, F, Z9; \
	VMULPD    Z10, Z9, Z9; \
	VMULPD    Z17, Z9, Z9; \
	VADDPD    Z9, Z16, Z16

// func laneScore8(site, a, b []float64, tipsB []msa.State, tabB []float64, tipB bool, t []float64, toff, stride int, pm *[16]float64, f0, f1, f2, f3, catW float64, noScale []bool, n int)
//
// laneScore for every site of a category's block, both far operand
// shapes: the far row factors lb are LOOKUP8 of b's table (from entry
// toff of tabB) if tipB, ROWS8 of pm over b's planes otherwise; the near
// operand a is a CLV. f0–f3 are in Z18–Z21 and catW in Z17. DI walks b's
// planes or codes, R14 holds the step.
TEXT ·laneScore8(SB), NOSPLIT, $0-248
	MOVQ  n+240(FP), CX
	TESTQ CX, CX
	JZ    none
	MOVQ  site_base+0(FP), DX
	MOVQ  a_base+24(FP), SI
	MOVQ  t_base+128(FP), BX
	STRIDE(stride+160(FP))
	MOVQ  pm+168(FP), R10
	MOVQ  noScale_base+216(FP), R12
	MOVQ  b_base+48(FP), DI
	MOVQ  $64, R14
	CMPB  tipB+120(FP), $0
	JEQ   consts
	MOVQ  tipsB_base+72(FP), DI
	MOVQ  tabB_base+96(FP), AX
	MOVQ  toff+152(FP), R13
	LEAQ  (AX)(R13*8), AX
	TABLE8(AX, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
	MOVQ  $8, R14

consts:
	VBROADCASTSD ·laneThresh(SB), Z15
	MOVL         $0x01010101, AX
	VPBROADCASTD AX, Z14
	VBROADCASTSD catW+208(FP), Z17
	VBROADCASTSD f0+176(FP), Z18
	VBROADCASTSD f1+184(FP), Z19
	VBROADCASTSD f2+192(FP), Z20
	VBROADCASTSD f3+200(FP), Z21
	MOVL         $0xff, AX
	KMOVB        AX, K1

loop:
	TAILMASK
	VMOVUPD.Z (DX), K1, Z16
	CMPB      tipB+120(FP), $0
	JNE       tipb
	LOAD8(DI, Z8, Z9, Z10, Z11)
	ROWS8(R10, Z8, Z9, Z10, Z11, Z4, Z5, Z6, Z7, Z12)
	JMP       rows

tipb:
	LOOKUP8(DI, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z4, Z5, Z6, Z7)

rows:
	LOAD8(SI, Z0, Z1, Z2, Z3)
	SCORE8(0, Z4, Z18, (BX), K2)
	SCORE8(4, Z5, Z19, (BX)(R8*1), K3)
	KORB     K3, K2, K2
	SCORE8(8, Z6, Z20, (BX)(R8*2), K3)
	KORB     K3, K2, K2
	SCORE8(12, Z7, Z21, (BX)(R9*1), K3)
	KORB     K3, K2, K2
	VMOVUPD  Z16, K1, (DX)
	VMOVDQU8 Z14, K2, (R12)
	ADDQ     $64, SI
	ADDQ     R14, DI
	ADDQ     $64, BX
	ADDQ     $64, DX
	ADDQ     $8, R12
	SUBQ     $8, CX
	JG       loop
	VZEROUPPER

none:
	RET

// EVALTERM8 adds state x's term ((f·p_x)·right_x)·catW to the
// accumulators Z14, f in F, the near factor p_x in PX and right_x in RX.
// Z12 is clobbered.
#define EVALTERM8(F, PX, RX) \
	VMULPD PX, F, Z12; \
	VMULPD RX, Z12, Z12; \
	VMULPD Z15, Z12, Z12; \
	VADDPD Z12, Z14, Z14

// func laneEvaluate8(site, p []float64, tipsP []msa.State, tipVec *[16][4]float64, tipP bool, q []float64, tipsQ []msa.State, tab []float64, tipQ bool, toff, stride int, pm *[16]float64, f0, f1, f2, f3, catW float64, n int)
//
// laneEvaluate for every site of a category's block: the near factors
// p_x are p's planes, or LOOKUP8 of tipVec if tipP; the far factors
// right_x are ROWS8 of pm over q's planes, or LOOKUP8 of q's table (from
// entry toff of tab) if tipQ. catW is in Z15; with both tables in
// registers none is left for f0–f3, which each group broadcasts into
// Z8–Z11 once the far factors are formed. SI and DI walk a side's planes
// or codes, BX and R12 hold the step; R11 holds pm.
TEXT ·laneEvaluate8(SB), NOSPLIT, $0-240
	MOVQ  n+232(FP), CX
	TESTQ CX, CX
	JZ    none
	MOVQ  site_base+0(FP), DX
	STRIDE(stride+176(FP))
	MOVQ  p_base+24(FP), SI
	MOVQ  $64, BX
	CMPB  tipP+80(FP), $0
	JEQ   qinit
	MOVQ  tipsP_base+48(FP), SI
	MOVQ  tipVec+72(FP), AX
	TABLE8(AX, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	MOVQ  $8, BX

qinit:
	MOVQ q_base+88(FP), DI
	MOVQ pm+184(FP), R11
	MOVQ $64, R12
	CMPB tipQ+160(FP), $0
	JEQ  consts
	MOVQ tipsQ_base+112(FP), DI
	MOVQ tab_base+136(FP), AX
	MOVQ toff+168(FP), R13
	LEAQ (AX)(R13*8), AX
	TABLE8(AX, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
	MOVQ $8, R12

consts:
	VBROADCASTSD catW+224(FP), Z15
	MOVL         $0xff, AX
	KMOVB        AX, K1

loop:
	TAILMASK
	VMOVUPD.Z (DX), K1, Z14
	CMPB      tipP+80(FP), $0
	JNE       tipp
	LOAD8(SI, Z4, Z5, Z6, Z7)
	JMP       qside

tipp:
	LOOKUP8(SI, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z4, Z5, Z6, Z7)

qside:
	CMPB tipQ+160(FP), $0
	JNE  tipq
	LOAD8(DI, Z8, Z9, Z10, Z11)
	ROWS8(R11, Z8, Z9, Z10, Z11, Z0, Z1, Z2, Z3, Z12)
	JMP  terms

tipq:
	LOOKUP8(DI, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z0, Z1, Z2, Z3)

terms:
	VBROADCASTSD f0+192(FP), Z8
	VBROADCASTSD f1+200(FP), Z9
	VBROADCASTSD f2+208(FP), Z10
	VBROADCASTSD f3+216(FP), Z11
	EVALTERM8(Z8, Z4, Z0)
	EVALTERM8(Z9, Z5, Z1)
	EVALTERM8(Z10, Z6, Z2)
	EVALTERM8(Z11, Z7, Z3)
	VMOVUPD Z14, K1, (DX)
	ADDQ    BX, SI
	ADDQ    R12, DI
	ADDQ    $64, DX
	SUBQ    $8, CX
	JG      loop
	VZEROUPPER

none:
	RET
