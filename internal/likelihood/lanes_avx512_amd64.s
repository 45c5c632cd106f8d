#include "textflag.h"

// AVX-512 lanes of the Γ Newview, candidate and evaluation workers
// (lanes.go): laneNewview, laneCandidate and laneEvaluate of
// lanes_amd64.s eight sites wide. Lane i holds site j+i and evaluates the
// Go loop's expression for that site with the same operands in the same
// order — products included, no FMA — so every value it writes has the
// bits the Go loop (and the four-wide routine) would have written. A
// routine takes every site of its block: n need not be a multiple of 8,
// and the last group of 1–7 sites runs under the tail mask K1, its loads
// masked and zeroing (a masked-off element is never read, so it cannot
// fault), its stores, tip-code loads, scale counts and noScale bytes
// masked. n == 0 returns before the first vector instruction.
//
// A side of a Newview or an evaluation that may be a tip keeps the
// category's table in registers for the category's sweep: TABLE8 loads
// its 16 codes × 4 states with plain loads and turns them state-major in
// registers, two zmm per state (codes 0–7 and 8–15), and a group's row
// factor of state x is one VPERMI2PD of the group's codes over the state's
// two registers — no gather, no transpose per group. The candidate
// routine sweeps every category per group, so it stores the four
// categories' state-major tables of each tip side in its frame and
// permutes from there (LOOKUPM).
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

// func laneNewview8(d, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, stride int, pa, pb *[4][16]float64, noScale []bool, sa, sb, ds []int32, n int) (rescale bool)
//
// laneNewview for every site of a block: per category c, plane x of d is
// la_x·lb_x. A side's row factors la (lb) are LOOKUP8 of its P·tipVec
// table (category c's rows start at entry c·64 of tabA, tabB) if it is a
// tip, ROWS8 of matrix c of pa (pb) over its planes if it is inner. The
// group's scale tests, ORed, store a 1 byte into noScale at each lane
// that passed (Z14 holds 1 bytes). Then ds = sa + sb + 1 − noScale per
// site, and rescale reports a site whose flag is 0. SI and DI walk a
// side's planes (64 bytes a group) or its codes (8 bytes), BX and R14 hold
// the step; R10 and R11 hold matrix c of pa and pb or category c's rows of
// the tables; R13 is category c's plane offset in bytes.
TEXT ·laneNewview8(SB), NOSPLIT, $0-313
	MOVB  $0, rescale+312(FP)
	MOVQ  n+304(FP), CX
	TESTQ CX, CX
	JZ    none
	STRIDE(stride+184(FP))
	MOVQ  pa+192(FP), R10
	CMPB  tipA+96(FP), $0
	JEQ   2(PC)
	MOVQ  tabA_base+72(FP), R10
	MOVQ  pb+200(FP), R11
	CMPB  tipB+176(FP), $0
	JEQ   2(PC)
	MOVQ  tabB_base+152(FP), R11
	XORQ  R13, R13

cat:
	MOVQ n+304(FP), CX
	MOVQ d_base+0(FP), DX
	ADDQ R13, DX
	MOVQ noScale_base+208(FP), R12
	MOVQ a_base+24(FP), SI
	ADDQ R13, SI
	MOVQ $64, BX
	CMPB tipA+96(FP), $0
	JEQ  binit
	MOVQ tipsA_base+48(FP), SI
	TABLE8(R10, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	MOVQ $8, BX

binit:
	MOVQ b_base+104(FP), DI
	ADDQ R13, DI
	MOVQ $64, R14
	CMPB tipB+176(FP), $0
	JEQ  consts
	MOVQ tipsB_base+128(FP), DI
	TABLE8(R11, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
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

	// The scale counts, eight sites a group: ds = sa + sb + 1 − flag, and
	// K3 collects the sites whose flag is 0.
	MOVQ       n+304(FP), CX
	MOVQ       noScale_base+208(FP), R12
	MOVQ       sa_base+232(FP), SI
	MOVQ       sb_base+256(FP), DI
	MOVQ       ds_base+280(FP), DX
	KXORQ      K3, K3, K3
	VPTERNLOGD $0xff, Z12, Z12, Z12
	MOVL       $0xff, AX
	KMOVB      AX, K1

counts:
	TAILMASK
	VMOVDQU8.Z  (R12), K1, Z8
	VPTESTNMB   Z8, Z8, K1, K2
	KORQ        K2, K3, K3
	VPMOVZXBD   X8, Z8
	VMOVDQU32.Z (SI), K1, Z9
	VMOVDQU32.Z (DI), K1, Z10
	VPADDD      Z10, Z9, Z9
	VPSUBD      Z12, Z9, Z9
	VPSUBD      Z8, Z9, Z9
	VMOVDQU32   Z9, K1, (DX)
	ADDQ        $8, R12
	ADDQ        $32, SI
	ADDQ        $32, DI
	ADDQ        $32, DX
	SUBQ        $8, CX
	JG          counts
	KORTESTQ    K3, K3
	SETNE       rescale+312(FP)
	VZEROUPPER

none:
	RET

// The candidate routine's frame, from its first 64-byte boundary on (R12):
// the near buffer (16 planes × 8 sites, plane (c, x) at c·256 + x·64) at
// 0, and the state-major tables of the step's two sides and of the far
// side, each 4 categories × 4 states × 16 codes (category c's state x at
// c·512 + x·128, codes 8–15 64 bytes on), at nearTabA, nearTabB and
// farTab. Aligned, no 64-byte store or load of it splits a cache line.
#define nearTabA 1024
#define nearTabB 3072
#define farTab 5120

// STORETAB stores the state-major table TABLE8 left in Z16–Z23 as
// category BX/128 of the frame's table at O.
#define STORETAB(O) \
	VMOVUPD Z16, (O)(R12)(BX*4); \
	VMOVUPD Z17, (O+64)(R12)(BX*4); \
	VMOVUPD Z18, (O+128)(R12)(BX*4); \
	VMOVUPD Z19, (O+192)(R12)(BX*4); \
	VMOVUPD Z20, (O+256)(R12)(BX*4); \
	VMOVUPD Z21, (O+320)(R12)(BX*4); \
	VMOVUPD Z22, (O+384)(R12)(BX*4); \
	VMOVUPD Z23, (O+448)(R12)(BX*4)

// LOOKUPM sets X0–X3 to the entries of the group's codes at TIPS in the
// frame's state-major table at byte O (a category's: the table's base
// plus c·512): the codes, masked by K1, widen to eight indices in Z12,
// and per state VPERMT2PD selects code c's entry from the state's two
// halves. A masked-off lane reads code 0.
#define LOOKUPM(TIPS, O, X0, X1, X2, X3) \
	VMOVDQU8.Z (TIPS), K1, Z12; \
	VPMOVZXBQ  X12, Z12; \
	VMOVUPD    (O)(R12), X0; \
	VPERMT2PD  (O+64)(R12), Z12, X0; \
	VMOVUPD    (O+128)(R12), X1; \
	VPERMT2PD  (O+192)(R12), Z12, X1; \
	VMOVUPD    (O+256)(R12), X2; \
	VPERMT2PD  (O+320)(R12), Z12, X2; \
	VMOVUPD    (O+384)(R12), X3; \
	VPERMT2PD  (O+448)(R12), Z12, X3

// BELOW8 clears the lanes of K whose V is at or above ScaleThreshold or
// NaN: predicate LT_OQ (0x11), the scale test's negation, against the
// threshold in Z15, under K itself. A chain of them from K1 leaves the
// lanes none of whose values passed — the sites to rescale.
#define BELOW8(V, K) \
	VCMPPD $0x11, Z15, V, K, K

// ROWSC8 is ROWS8 with matrix c of the set at P.
#define ROWSC8(P, c, V0, V1, V2, V3, A0, A1, A2, A3, TMP) \
	DOT8(P, (16*c), V0, V1, V2, V3, A0, TMP); \
	DOT8(P, (16*c+4), V0, V1, V2, V3, A1, TMP); \
	DOT8(P, (16*c+8), V0, V1, V2, V3, A2, TMP); \
	DOT8(P, (16*c+12), V0, V1, V2, V3, A3, TMP)

// NEARSIDE8 sets A0–A3 to one side's row factors of category c of a
// group: LOOKUPM of the side's frame table at TAB + c·512 for the codes at
// the side's tips (TIPS(FP) + DX) if its flag at TIP(FP) is set, else
// ROWSC8 of its matrix set at MAT(FP) over its planes at B. LTIP and LEND
// are the macro's labels.
#define NEARSIDE8(c, TIP, TIPS, TAB, MAT, B, A0, A1, A2, A3, LTIP, LEND) \
	CMPB TIP, $0; \
	JNE  LTIP; \
	LOAD8(B, Z8, Z9, Z10, Z11); \
	MOVQ MAT, AX; \
	ROWSC8(AX, c, Z8, Z9, Z10, Z11, A0, A1, A2, A3, Z12); \
	JMP  LEND; \
LTIP: \
	MOVQ TIPS, AX; \
	ADDQ DX, AX; \
	LOOKUPM(AX, TAB+c*512, A0, A1, A2, A3); \
LEND: \
	NOP

// NEARROW8 stores row x of category c of a group's near vector, la_x·lb_x
// with the two sides' row factors in LA and LB, to the near buffer (plane
// (c, x) at c·256 + x·64) and chains its scale test into K2.
#define NEARROW8(LA, LB, c, x) \
	VMULPD  LB, LA, LA; \
	VMOVUPD LA, (c*256+x*64)(R12); \
	BELOW8(LA, K2)

// SCORE8 is row x of category c of the score: Newview's v = (P·near)·lb
// with matrix c of the set at P, the near column in Z0–Z3 and the far
// side's row factor in LB, its scale test chained into K4, then the term
// ((f·v)·t)·catW with f in F and t the insertion table's plane at T added
// to the accumulators Z16. Z8–Z10 are clobbered.
#define SCORE8(P, c, x, LB, F, T) \
	DOT8(P, (16*c+4*x), Z0, Z1, Z2, Z3, Z8, Z9); \
	VMULPD    LB, Z8, Z8; \
	BELOW8(Z8, K4); \
	VMOVUPD.Z T, K1, Z10; \
	VMULPD    Z8, F, Z9; \
	VMULPD    Z10, Z9, Z9; \
	VMULPD    Z17, Z9, Z9; \
	VADDPD    Z9, Z16, Z16

// func laneCandidate8(d []float64, nds []int32, a []float64, tipsA []msa.State, tabA []float64, tipA bool, b []float64, tipsB []msa.State, tabB []float64, tipB bool, sa, sb []int32, f []float64, tipsF []msa.State, tabF []float64, tipF bool, t []float64, stride int, pa, pb, ph *[4][16]float64, freqs *[4]float64, catW float64, site []float64, noScale []bool, n int)
//
// laneCandidate for every site of a block, eight a group, the four
// categories written out so that each load walks one plane: the near
// vector of every category into the frame's near buffer, K2 chained down
// to the sites none of whose entries passed; those sites multiplied by
// ScaleFactor and nds = sa + sb (+1 in K2); then per category the near
// column, stored to d under K1, and the score against the far
// side (ROWS8 of ph over f's planes, or LOOKUPM of its table) and the
// insertion table t, K4 chained down to the sites the inserted vertex
// rescales and the others stored as noScale bytes. A tip side's four
// tables go to the frame first. Z15 holds the threshold, Z14 1 bytes,
// Z17 catW, Z18–Z21 f0–f3; DX is the group's first site, SI, DI, R10, R11
// and R13 the planes of a, b, f, t and d at it (R14 steps them a category,
// BX back to the next group), R12 the aligned frame.
TEXT ·laneCandidate8(SB), $7232-464
	MOVQ  n+456(FP), CX
	TESTQ CX, CX
	JZ    none
	LEAQ  63(SP), R12
	ANDQ  $-64, R12
	CMPB  tipA+120(FP), $0
	JEQ   tabb
	MOVQ  tabA_base+96(FP), SI
	XORQ  BX, BX

taba:
	LEAQ (SI)(BX*4), AX
	TABLE8(AX, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	STORETAB(nearTabA)
	ADDQ $128, BX
	CMPQ BX, $512
	JNE  taba

tabb:
	CMPB tipB+200(FP), $0
	JEQ  tabf
	MOVQ tabB_base+176(FP), SI
	XORQ BX, BX

tabbcat:
	LEAQ (SI)(BX*4), AX
	TABLE8(AX, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	STORETAB(nearTabB)
	ADDQ $128, BX
	CMPQ BX, $512
	JNE  tabbcat

tabf:
	CMPB tipF+328(FP), $0
	JEQ  consts
	MOVQ tabF_base+304(FP), SI
	XORQ BX, BX

tabfcat:
	LEAQ (SI)(BX*4), AX
	TABLE8(AX, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	STORETAB(farTab)
	ADDQ $128, BX
	CMPQ BX, $512
	JNE  tabfcat

consts:
	STRIDE(stride+360(FP))
	LEAQ         (R8*4), R14
	MOVQ         R14, BX
	SHLQ         $2, BX
	SUBQ         $64, BX
	VBROADCASTSD ·laneThresh(SB), Z15
	MOVL         $0x01010101, AX
	VPBROADCASTD AX, Z14
	VBROADCASTSD catW+400(FP), Z17
	MOVQ         freqs+392(FP), AX
	VBROADCASTSD 0(AX), Z18
	VBROADCASTSD 8(AX), Z19
	VBROADCASTSD 16(AX), Z20
	VBROADCASTSD 24(AX), Z21
	MOVL         $0xff, AX
	KMOVB        AX, K1
	XORQ         DX, DX
	MOVQ         a_base+48(FP), SI
	MOVQ         b_base+128(FP), DI
	MOVQ         f_base+256(FP), R10
	MOVQ         t_base+336(FP), R11
	MOVQ         d_base+0(FP), R13

// The two macros below name the routine's arguments, so they are defined
// inside it, where go vet's asmdecl checks those names against its frame.

// NEARCAT8 is category c of a group's near vector: the two sides' row
// factors, SI and DI the category's planes of a and b, and the four rows;
// then SI and DI step to the next category.
#define NEARCAT8(c, LTA, LEA, LTB, LEB) \
	NEARSIDE8(c, tipA+120(FP), tipsA_base+72(FP), nearTabA, pa+368(FP), SI, Z0, Z1, Z2, Z3, LTA, LEA); \
	NEARSIDE8(c, tipB+200(FP), tipsB_base+152(FP), nearTabB, pb+376(FP), DI, Z4, Z5, Z6, Z7, LTB, LEB); \
	NEARROW8(Z0, Z4, c, 0); \
	NEARROW8(Z1, Z5, c, 1); \
	NEARROW8(Z2, Z6, c, 2); \
	NEARROW8(Z3, Z7, c, 3); \
	ADDQ R14, SI; \
	ADDQ R14, DI

// SCORECAT8 is category c of a group's score: the near column from the
// buffer, stored to d's planes at R13 under K1, the far row
// factors (R10 its planes), and the four rows against the insertion
// table's planes at R11; then R10, R11 and R13 step to the next category.
#define SCORECAT8(c, LTIP, LEND) \
	VMOVUPD (c*256)(R12), Z0; \
	VMOVUPD (c*256+64)(R12), Z1; \
	VMOVUPD (c*256+128)(R12), Z2; \
	VMOVUPD (c*256+192)(R12), Z3; \
	VMOVUPD Z0, K1, (R13); \
	VMOVUPD Z1, K1, (R13)(R8*1); \
	VMOVUPD Z2, K1, (R13)(R8*2); \
	VMOVUPD Z3, K1, (R13)(R9*1); \
	NEARSIDE8(c, tipF+328(FP), tipsF_base+280(FP), farTab, ph+384(FP), R10, Z4, Z5, Z6, Z7, LTIP, LEND); \
	MOVQ ph+384(FP), AX; \
	SCORE8(AX, c, 0, Z4, Z18, (R11)); \
	SCORE8(AX, c, 1, Z5, Z19, (R11)(R8*1)); \
	SCORE8(AX, c, 2, Z6, Z20, (R11)(R8*2)); \
	SCORE8(AX, c, 3, Z7, Z21, (R11)(R9*1)); \
	ADDQ R14, R10; \
	ADDQ R14, R11; \
	ADDQ R14, R13

group:
	TAILMASK
	KMOVB K1, K2
	NEARCAT8(0, neartipa0, nearb0, neartipb0, nearrows0)
	NEARCAT8(1, neartipa1, nearb1, neartipb1, nearrows1)
	NEARCAT8(2, neartipa2, nearb2, neartipb2, nearrows2)
	NEARCAT8(3, neartipa3, nearb3, neartipb3, nearrows3)

	// Rescale the sites of K2, none of whose entries passed.
	KORTESTB K2, K2
	JZ       counts
	VBROADCASTSD ·laneScale(SB), Z12
	XORQ     AX, AX

rescale:
	VMOVUPD (R12)(AX*1), Z8
	VMULPD  Z12, Z8, K2, Z8
	VMOVUPD Z8, (R12)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, $1024
	JNE     rescale

counts:
	MOVQ        sa_base+208(FP), AX
	VMOVDQU32.Z (AX)(DX*4), K1, Z8
	MOVQ        sb_base+232(FP), AX
	VMOVDQU32.Z (AX)(DX*4), K1, Z9
	VPADDD      Z9, Z8, Z8
	VPTERNLOGD  $0xff, Z9, Z9, Z9
	VPSUBD      Z9, Z8, K2, Z8
	MOVQ        nds_base+24(FP), AX
	VMOVDQU32   Z8, K1, (AX)(DX*4)

	// The score, from the near buffer.
	MOVQ      site_base+408(FP), AX
	VMOVUPD.Z (AX)(DX*8), K1, Z16
	KMOVB     K1, K4
	SCORECAT8(0, fartip0, terms0)
	SCORECAT8(1, fartip1, terms1)
	SCORECAT8(2, fartip2, terms2)
	SCORECAT8(3, fartip3, terms3)

	MOVQ     site_base+408(FP), AX
	VMOVUPD  Z16, K1, (AX)(DX*8)
	MOVQ     noScale_base+432(FP), AX
	KANDNB   K1, K4, K4
	VMOVDQU8 Z14, K4, (AX)(DX*1)
	SUBQ     BX, SI
	SUBQ     BX, DI
	SUBQ     BX, R10
	SUBQ     BX, R11
	SUBQ     BX, R13
	ADDQ     $8, DX
	SUBQ     $8, CX
	JG       group
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
