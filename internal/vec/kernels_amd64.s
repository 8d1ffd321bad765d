#include "textflag.h"

// AVX2 bodies of the accumulating distance, dot and box-distance
// kernels, of the elementwise axpy and rotation, and of the extent fold
// (minMaxAVX2 says how it keeps the builtins' bits). Each accumulating
// one reproduces its Go body in kernels.go / kernels32.go to the bit:
// one ymm register holds the lanes s0..s3, so lane l takes positions ≡ l
// (mod 4) in order; every element is subtracted (or widened with
// VCVTPS2PD), multiplied and then added — never fused, because a fused
// multiply-add rounds once where the Go body rounds twice; the tail
// folds into lane 0 with scalar ops after the main loop; and the lanes
// combine as (s0+s1)+(s2+s3). Every loop starts 32-byte aligned
// (PCALIGN) so its speed does not depend on where the linker places
// the function. The four-row forms run four independent accumulator
// chains over one load of the query, which is what hides the add
// latency a single row's one chain is bound by.

// HSUM leaves (s0+s1)+(s2+s3) in the low lane of lo, where lo holds
// [s0, s1] and hi holds [s2, s3]; t is clobbered.
#define HSUM(lo, hi, t) \
	VUNPCKHPD lo, lo, t; \
	VADDSD    t, lo, lo; \
	VUNPCKHPD hi, hi, t; \
	VADDSD    t, hi, hi; \
	VADDSD    hi, lo, lo

// func sqdistAVX2(a, b []float64) float64
TEXT ·sqdistAVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    sqTail
	PCALIGN $32

sqLoop:
	VMOVUPD (SI)(AX*8), Y1
	VSUBPD  (DI)(AX*8), Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     sqLoop

sqTail:
	VEXTRACTF128 $1, Y0, X2
	CMPQ         AX, CX
	JGE          sqDone
	PCALIGN $32

sqTailLoop:
	VMOVSD (SI)(AX*8), X1
	VSUBSD (DI)(AX*8), X1, X1
	VMULSD X1, X1, X1
	VADDSD X1, X0, X0
	INCQ   AX
	CMPQ   AX, CX
	JLT    sqTailLoop

sqDone:
	HSUM(X0, X2, X3)
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET

// func sqdistQ32AVX2(q []float64, p []float32) float64
TEXT ·sqdistQ32AVX2(SB), NOSPLIT, $0-56
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   p_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    q32Tail
	PCALIGN $32

q32Loop:
	VCVTPS2PD (DI)(AX*4), Y1
	VMOVUPD   (SI)(AX*8), Y2
	VSUBPD    Y1, Y2, Y1
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y0, Y0
	ADDQ      $4, AX
	CMPQ      AX, BX
	JLT       q32Loop

q32Tail:
	VEXTRACTF128 $1, Y0, X2
	CMPQ         AX, CX
	JGE          q32Done
	PCALIGN $32

q32TailLoop:
	VCVTSS2SD (DI)(AX*4), X1, X1
	VMOVSD    (SI)(AX*8), X3
	VSUBSD    X1, X3, X1
	VMULSD    X1, X1, X1
	VADDSD    X1, X0, X0
	INCQ      AX
	CMPQ      AX, CX
	JLT       q32TailLoop

q32Done:
	HSUM(X0, X2, X3)
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET

// func dotAVX2(a, b []float64) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    dotTail
	PCALIGN $32

dotLoop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     dotLoop

dotTail:
	VEXTRACTF128 $1, Y0, X2
	CMPQ         AX, CX
	JGE          dotDone
	PCALIGN $32

dotTailLoop:
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VADDSD X1, X0, X0
	INCQ   AX
	CMPQ   AX, CX
	JLT    dotTailLoop

dotDone:
	HSUM(X0, X2, X3)
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET

// func dot32AVX2(a []float64, b []float32) float64
TEXT ·dot32AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    d32Tail
	PCALIGN $32

d32Loop:
	VCVTPS2PD (DI)(AX*4), Y1
	VMULPD    (SI)(AX*8), Y1, Y1
	VADDPD    Y1, Y0, Y0
	ADDQ      $4, AX
	CMPQ      AX, BX
	JLT       d32Loop

d32Tail:
	VEXTRACTF128 $1, Y0, X2
	CMPQ         AX, CX
	JGE          d32Done
	PCALIGN $32

d32TailLoop:
	VCVTSS2SD (DI)(AX*4), X1, X1
	VMULSD    (SI)(AX*8), X1, X1
	VADDSD    X1, X0, X0
	INCQ      AX
	CMPQ      AX, CX
	JLT       d32TailLoop

d32Done:
	HSUM(X0, X2, X3)
	VZEROUPPER
	MOVSD X0, ret+48(FP)
	RET

// func boxSqDistAVX2(q, lo, hi []float64) float64
//
// Each lane takes e = max(lo − q, q − hi, 0) and adds e². VMAXPD returns
// its second source when either operand is NaN, so a NaN in one of the
// two differences could be lost; an unordered compare of the two marks
// those lanes and OR-ing its all-ones mask in makes e NaN there, as Go's
// max makes it. The sign of a zero e is squared away.
TEXT ·boxSqDistAVX2(SB), NOSPLIT, $0-80
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   lo_base+24(FP), DI
	MOVQ   hi_base+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y9, Y9, Y9
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    boxTail
	PCALIGN $32

boxLoop:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2
	VSUBPD  (DX)(AX*8), Y1, Y3
	VCMPPD  $3, Y3, Y2, Y4
	VMAXPD  Y3, Y2, Y5
	VMAXPD  Y9, Y5, Y5
	VORPD   Y4, Y5, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     boxLoop

boxTail:
	VEXTRACTF128 $1, Y0, X6
	CMPQ         AX, CX
	JGE          boxDone
	PCALIGN $32

boxTailLoop:
	VMOVSD (SI)(AX*8), X1
	VMOVSD (DI)(AX*8), X2
	VSUBSD X1, X2, X2
	VSUBSD (DX)(AX*8), X1, X3
	VCMPSD $3, X3, X2, X4
	VMAXSD X3, X2, X5
	VMAXSD X9, X5, X5
	VORPD  X4, X5, X5
	VMULSD X5, X5, X5
	VADDSD X5, X0, X0
	INCQ   AX
	CMPQ   AX, CX
	JLT    boxTailLoop

boxDone:
	HSUM(X0, X6, X3)
	VZEROUPPER
	MOVSD X0, ret+72(FP)
	RET

// func minMaxAVX2(lo, hi, x []float64)
//
// Each lane repeats Go's amd64 lowering of the builtins. min(a, b) is
// t | u with t = VMINPD(a, b) and u = VMINPD(t, a): VMINPD returns its
// second source when the operands are unordered or equal, so a NaN in
// either operand, or two zeros of either sign, leave the OR of both
// operands' bits, as the builtin does. max(a, b) is that min on the
// sign-flipped operands, flipped back. A pass of four stores lo before
// it loads hi, so the dispatcher (kernels_amd64.go) sends operands that
// share memory to the Go body.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-72
	MOVQ     lo_base+0(FP), DI
	MOVQ     hi_base+24(FP), DX
	MOVQ     x_base+48(FP), SI
	MOVQ     x_len+56(FP), CX
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15
	MOVQ     CX, BX
	ANDQ     $-4, BX
	XORQ     AX, AX
	CMPQ     AX, BX
	JGE      mmTail
	PCALIGN $32

mmLoop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMINPD  Y0, Y1, Y2
	VMINPD  Y1, Y2, Y3
	VORPD   Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	VXORPD  Y15, Y0, Y0
	VXORPD  (DX)(AX*8), Y15, Y1
	VMINPD  Y0, Y1, Y2
	VMINPD  Y1, Y2, Y3
	VORPD   Y3, Y2, Y2
	VXORPD  Y15, Y2, Y2
	VMOVUPD Y2, (DX)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     mmLoop

mmTail:
	CMPQ AX, CX
	JGE  mmDone
	PCALIGN $32

mmTailLoop:
	VMOVSD (SI)(AX*8), X0
	VMOVSD (DI)(AX*8), X1
	VMINSD X0, X1, X2
	VMINSD X1, X2, X3
	VORPD  X3, X2, X2
	VMOVSD X2, (DI)(AX*8)
	VXORPD X15, X0, X0
	VMOVSD (DX)(AX*8), X1
	VXORPD X15, X1, X1
	VMINSD X0, X1, X2
	VMINSD X1, X2, X3
	VORPD  X3, X2, X2
	VXORPD X15, X2, X2
	VMOVSD X2, (DX)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    mmTailLoop

mmDone:
	VZEROUPPER
	RET

// func sqdist4AVX2(q []float64, p0, p1, p2, p3 *float64, out *[4]float64)
TEXT ·sqdist4AVX2(SB), NOSPLIT, $0-64
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   p0+24(FP), R8
	MOVQ   p1+32(FP), R9
	MOVQ   p2+40(FP), R10
	MOVQ   p3+48(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    sq4Tail
	PCALIGN $32

sq4Loop:
	VMOVUPD (SI)(AX*8), Y4
	VSUBPD  (R8)(AX*8), Y4, Y5
	VSUBPD  (R9)(AX*8), Y4, Y6
	VSUBPD  (R10)(AX*8), Y4, Y7
	VSUBPD  (R11)(AX*8), Y4, Y8
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     sq4Loop

sq4Tail:
	VEXTRACTF128 $1, Y0, X12
	VEXTRACTF128 $1, Y1, X13
	VEXTRACTF128 $1, Y2, X14
	VEXTRACTF128 $1, Y3, X15
	CMPQ         AX, CX
	JGE          sq4Done
	PCALIGN $32

sq4TailLoop:
	VMOVSD (SI)(AX*8), X4
	VSUBSD (R8)(AX*8), X4, X5
	VSUBSD (R9)(AX*8), X4, X6
	VSUBSD (R10)(AX*8), X4, X7
	VSUBSD (R11)(AX*8), X4, X8
	VMULSD X5, X5, X5
	VMULSD X6, X6, X6
	VMULSD X7, X7, X7
	VMULSD X8, X8, X8
	VADDSD X5, X0, X0
	VADDSD X6, X1, X1
	VADDSD X7, X2, X2
	VADDSD X8, X3, X3
	INCQ   AX
	CMPQ   AX, CX
	JLT    sq4TailLoop

sq4Done:
	MOVQ out+56(FP), DI
	HSUM(X0, X12, X4)
	HSUM(X1, X13, X4)
	HSUM(X2, X14, X4)
	HSUM(X3, X15, X4)
	VZEROUPPER
	MOVSD X0, 0(DI)
	MOVSD X1, 8(DI)
	MOVSD X2, 16(DI)
	MOVSD X3, 24(DI)
	RET

// func sqdistQ32x4AVX2(q []float64, p0, p1, p2, p3 *float32, out *[4]float64)
TEXT ·sqdistQ32x4AVX2(SB), NOSPLIT, $0-64
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   p0+24(FP), R8
	MOVQ   p1+32(FP), R9
	MOVQ   p2+40(FP), R10
	MOVQ   p3+48(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    q4Tail
	PCALIGN $32

q4Loop:
	VMOVUPD   (SI)(AX*8), Y4
	VCVTPS2PD (R8)(AX*4), Y5
	VCVTPS2PD (R9)(AX*4), Y6
	VCVTPS2PD (R10)(AX*4), Y7
	VCVTPS2PD (R11)(AX*4), Y8
	VSUBPD    Y5, Y4, Y5
	VSUBPD    Y6, Y4, Y6
	VSUBPD    Y7, Y4, Y7
	VSUBPD    Y8, Y4, Y8
	VMULPD    Y5, Y5, Y5
	VMULPD    Y6, Y6, Y6
	VMULPD    Y7, Y7, Y7
	VMULPD    Y8, Y8, Y8
	VADDPD    Y5, Y0, Y0
	VADDPD    Y6, Y1, Y1
	VADDPD    Y7, Y2, Y2
	VADDPD    Y8, Y3, Y3
	ADDQ      $4, AX
	CMPQ      AX, BX
	JLT       q4Loop

q4Tail:
	VEXTRACTF128 $1, Y0, X12
	VEXTRACTF128 $1, Y1, X13
	VEXTRACTF128 $1, Y2, X14
	VEXTRACTF128 $1, Y3, X15
	CMPQ         AX, CX
	JGE          q4Done
	PCALIGN $32

q4TailLoop:
	VMOVSD    (SI)(AX*8), X4
	VCVTSS2SD (R8)(AX*4), X5, X5
	VCVTSS2SD (R9)(AX*4), X6, X6
	VCVTSS2SD (R10)(AX*4), X7, X7
	VCVTSS2SD (R11)(AX*4), X8, X8
	VSUBSD    X5, X4, X5
	VSUBSD    X6, X4, X6
	VSUBSD    X7, X4, X7
	VSUBSD    X8, X4, X8
	VMULSD    X5, X5, X5
	VMULSD    X6, X6, X6
	VMULSD    X7, X7, X7
	VMULSD    X8, X8, X8
	VADDSD    X5, X0, X0
	VADDSD    X6, X1, X1
	VADDSD    X7, X2, X2
	VADDSD    X8, X3, X3
	INCQ      AX
	CMPQ      AX, CX
	JLT       q4TailLoop

q4Done:
	MOVQ out+56(FP), DI
	HSUM(X0, X12, X4)
	HSUM(X1, X13, X4)
	HSUM(X2, X14, X4)
	HSUM(X3, X15, X4)
	VZEROUPPER
	MOVSD X0, 0(DI)
	MOVSD X1, 8(DI)
	MOVSD X2, 16(DI)
	MOVSD X3, 24(DI)
	RET

// The fused dot bodies keep the lanes of the unfused ones, but each
// element is one VFMADD231 into its lane (kernels.go, dotFMAGo). The
// tail goes after the lanes' upper halves are extracted, because a
// scalar VEX op clears the upper half of its register.

// FMATAIL(q, acc0..acc3, done) fuses q's elements from AX to CX with
// the four rows R8–R11 into the low lanes of acc0..acc3; X12 is
// clobbered.
#define FMATAIL(q, a0, a1, a2, a3, loop, done) \
	CMPQ AX, CX; \
	JGE  done; \
loop: \
	VMOVSD      (q)(AX*8), X12; \
	VFMADD231SD (R8)(AX*8), X12, a0; \
	VFMADD231SD (R9)(AX*8), X12, a1; \
	VFMADD231SD (R10)(AX*8), X12, a2; \
	VFMADD231SD (R11)(AX*8), X12, a3; \
	INCQ        AX; \
	CMPQ        AX, CX; \
	JLT         loop; \
done:

// FMADONE(q, Y0_..Y3_, a0..a3, …) extracts the upper halves of the four
// accumulators Y0_..Y3_, fuses q's tail into their low halves a0..a3,
// combines the lanes and stores the four sums at DI; DX holds the index
// the tail starts at.
#define FMADONE(q, Y0_, Y1_, Y2_, Y3_, a0, a1, a2, a3, loop, done) \
	VEXTRACTF128 $1, Y0_, X8; \
	VEXTRACTF128 $1, Y1_, X9; \
	VEXTRACTF128 $1, Y2_, X10; \
	VEXTRACTF128 $1, Y3_, X11; \
	MOVQ         DX, AX; \
	FMATAIL(q, a0, a1, a2, a3, loop, done) \
	HSUM(a0, X8, X12); \
	HSUM(a1, X9, X12); \
	HSUM(a2, X10, X12); \
	HSUM(a3, X11, X12); \
	MOVSD        a0, 0(DI); \
	MOVSD        a1, 8(DI); \
	MOVSD        a2, 16(DI); \
	MOVSD        a3, 24(DI)

// func dot4FMAAVX2(q []float64, p0, p1, p2, p3 *float64, out *[4]float64)
TEXT ·dot4FMAAVX2(SB), NOSPLIT, $0-64
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   p0+24(FP), R8
	MOVQ   p1+32(FP), R9
	MOVQ   p2+40(FP), R10
	MOVQ   p3+48(FP), R11
	MOVQ   out+56(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    f4Tail
	PCALIGN $32

f4Loop:
	VMOVUPD     (SI)(AX*8), Y4
	VFMADD231PD (R8)(AX*8), Y4, Y0
	VFMADD231PD (R9)(AX*8), Y4, Y1
	VFMADD231PD (R10)(AX*8), Y4, Y2
	VFMADD231PD (R11)(AX*8), Y4, Y3
	ADDQ        $4, AX
	CMPQ        AX, BX
	JLT         f4Loop

f4Tail:
	MOVQ AX, DX
	FMADONE(SI, Y0, Y1, Y2, Y3, X0, X1, X2, X3, f4TailLoop, f4Done)
	VZEROUPPER
	RET

// func dot2x4FMAAVX2(qa, qb []float64, p0, p1, p2, p3 *float64, outA, outB *[4]float64)
//
// Each pass loads a chunk of each row once and fuses it into qa's four
// accumulators (Y0–Y3) and qb's (Y4–Y7).
TEXT ·dot2x4FMAAVX2(SB), NOSPLIT, $0-96
	MOVQ   qa_base+0(FP), SI
	MOVQ   qa_len+8(FP), CX
	MOVQ   qb_base+24(FP), R12
	MOVQ   p0+48(FP), R8
	MOVQ   p1+56(FP), R9
	MOVQ   p2+64(FP), R10
	MOVQ   p3+72(FP), R11
	MOVQ   outA+80(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   CX, BX
	ANDQ   $-4, BX
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    f24Tail
	PCALIGN $32

f24Loop:
	VMOVUPD     (SI)(AX*8), Y8
	VMOVUPD     (R12)(AX*8), Y9
	VMOVUPD     (R8)(AX*8), Y10
	VMOVUPD     (R9)(AX*8), Y11
	VMOVUPD     (R10)(AX*8), Y12
	VMOVUPD     (R11)(AX*8), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y13, Y9, Y7
	ADDQ        $4, AX
	CMPQ        AX, BX
	JLT         f24Loop

f24Tail:
	MOVQ AX, DX
	FMADONE(SI, Y0, Y1, Y2, Y3, X0, X1, X2, X3, f24TailA, f24DoneA)
	MOVQ outB+88(FP), DI
	FMADONE(R12, Y4, Y5, Y6, Y7, X4, X5, X6, X7, f24TailB, f24DoneB)
	VZEROUPPER
	RET

// The elementwise bodies have no lanes to keep: each element is
// multiplied, then added or subtracted, exactly as its Go body writes
// it, and never fused. Eight elements go per pass in two ymm registers,
// then one pass of four, then a scalar tail. A whole pass is loaded
// before it is stored, so the dispatchers (kernels_amd64.go) send
// operands that share memory to the Go body.

// func axpyAVX2(y []float64, a float64, x []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y0
	MOVQ         x_base+32(FP), SI
	MOVQ         CX, BX
	ANDQ         $-8, BX
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          axpyFour
	PCALIGN $32

axpyLoop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     axpyLoop

axpyFour:
	MOVQ    CX, BX
	ANDQ    $-4, BX
	CMPQ    AX, BX
	JGE     axpyTail
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

axpyTail:
	CMPQ AX, CX
	JGE  axpyDone
	PCALIGN $32

axpyTailLoop:
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    axpyTailLoop

axpyDone:
	VZEROUPPER
	RET

// func axpy32AVX2(y []float64, a float64, x []float32)
TEXT ·axpy32AVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y0
	MOVQ         x_base+32(FP), SI
	MOVQ         CX, BX
	ANDQ         $-8, BX
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          a32Four
	PCALIGN $32

a32Loop:
	VCVTPS2PD (SI)(AX*4), Y1
	VCVTPS2PD 16(SI)(AX*4), Y2
	VMULPD    Y1, Y0, Y1
	VMULPD    Y2, Y0, Y2
	VADDPD    (DI)(AX*8), Y1, Y1
	VADDPD    32(DI)(AX*8), Y2, Y2
	VMOVUPD   Y1, (DI)(AX*8)
	VMOVUPD   Y2, 32(DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, BX
	JLT       a32Loop

a32Four:
	MOVQ      CX, BX
	ANDQ      $-4, BX
	CMPQ      AX, BX
	JGE       a32Tail
	VCVTPS2PD (SI)(AX*4), Y1
	VMULPD    Y1, Y0, Y1
	VADDPD    (DI)(AX*8), Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ      $4, AX

a32Tail:
	CMPQ AX, CX
	JGE  a32Done
	PCALIGN $32

a32TailLoop:
	VCVTSS2SD (SI)(AX*4), X1, X1
	VMULSD    X1, X0, X1
	VADDSD    (DI)(AX*8), X1, X1
	VMOVSD    X1, (DI)(AX*8)
	INCQ      AX
	CMPQ      AX, CX
	JLT       a32TailLoop

a32Done:
	VZEROUPPER
	RET

// ROT4(x, y, t, u) rotates the four pairs in x and y by the broadcast
// cosine in Y0 and sine in Y1, leaving c*x - s*y in t and s*x + c*y in
// y; x and u are clobbered.
#define ROT4(x, y, t, u) \
	VMULPD x, Y0, t; \
	VMULPD y, Y1, u; \
	VMULPD x, Y1, x; \
	VMULPD y, Y0, y; \
	VSUBPD u, t, t;  \
	VADDPD y, x, y

// func rotAVX2(x, y []float64, c, s float64)
TEXT ·rotAVX2(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         y_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	MOVQ         CX, BX
	ANDQ         $-8, BX
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          rotFour
	PCALIGN $32

rotLoop:
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	ROT4(Y2, Y3, Y6, Y7)
	ROT4(Y4, Y5, Y8, Y9)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y8, 32(SI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     rotLoop

rotFour:
	MOVQ    CX, BX
	ANDQ    $-4, BX
	CMPQ    AX, BX
	JGE     rotTail
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	ROT4(Y2, Y3, Y6, Y7)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX

rotTail:
	CMPQ AX, CX
	JGE  rotDone
	PCALIGN $32

rotTailLoop:
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DI)(AX*8), X3
	VMULSD X2, X0, X6
	VMULSD X3, X1, X7
	VMULSD X2, X1, X2
	VMULSD X3, X0, X3
	VSUBSD X7, X6, X6
	VADDSD X3, X2, X3
	VMOVSD X6, (SI)(AX*8)
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    rotTailLoop

rotDone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
