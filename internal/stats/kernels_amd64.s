#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sqDistColsAVX2(x *float64, n int, packed *float64, out *float64, panels int)
//
// Lane l of accumulator Yk holds column 4k+l of the pass's four panels.
// Per dimension d the lane computes e = c − x (VSUBPD, column value
// first), e·e (VMULPD) and sum + e² (VADDPD, sum first): the scalar loop's
// SUBSD, MULSD and ADDSD with the same operands in the same order, so no
// lane can differ from SquaredDistance in any bit, NaN payloads included.
// R11 = 8d indexes x directly and the panels scaled by four (32 bytes per
// dimension).
TEXT ·sqDistColsAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), AX
	SHLQ $3, AX               // AX = 8n, the end of x in bytes
	MOVQ packed+16(FP), BX    // BX = the pass's first panel
	MOVQ out+24(FP), DX
	MOVQ panels+32(FP), R9    // R9 = panels left
	MOVQ AX, R8
	SHLQ $2, R8               // R8 = panel stride in bytes (32n)

block16:
	CMPQ R9, $4
	JLT  block4
	LEAQ (BX)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R13)(R8*1), R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R11, R11

loop16:
	VBROADCASTSD (SI)(R11*1), Y4
	VMOVUPD (BX)(R11*4), Y5
	VMOVUPD (R12)(R11*4), Y6
	VMOVUPD (R13)(R11*4), Y7
	VMOVUPD (R14)(R11*4), Y8
	VSUBPD  Y4, Y5, Y5
	VSUBPD  Y4, Y6, Y6
	VSUBPD  Y4, Y7, Y7
	VSUBPD  Y4, Y8, Y8
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ $8, R11
	CMPQ R11, AX
	JLT  loop16
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	LEAQ (R14)(R8*1), BX
	SUBQ $4, R9
	JMP  block16

block4:
	CMPQ R9, $0
	JEQ  done
	VXORPD Y0, Y0, Y0
	XORQ R11, R11

loop4:
	VBROADCASTSD (SI)(R11*1), Y4
	VMOVUPD (BX)(R11*4), Y5
	VSUBPD  Y4, Y5, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ $8, R11
	CMPQ R11, AX
	JLT  loop4
	VMOVUPD Y0, (DX)
	ADDQ $32, DX
	ADDQ R8, BX
	DECQ R9
	JMP  block4

done:
	VZEROUPPER
	RET

// func subRows4AVX2(di, d *float64, m int, l *float64, tiny *uint64, cols int)
//
// Per column lane, for r = 0..3: p = d_r[j]·l[r] (VMULPD, row value
// first, as the compiled Go loop multiplies) and v = v − p (VSUBPD, v
// first): four subtractions in k order, each product rounded alone.
//
// Products that underflow make the multiply take a slow microcode assist,
// and GP kernels on long encodings produce them in bulk. So a lane whose
// |d_r[j]| ≤ tiny[r] (which bounds |p| below 2^-1023) multiplies +0
// instead of d_r[j]. Subtracting that ±0 leaves v as subtracting the true
// p would whenever |v| ≥ 2^-969 or v is NaN or ±Inf, because |p| is then
// below half an ulp of v. The loop tracks the smallest |v| a lane has
// entered a step with; a group of four columns in which some lane dropped
// a product and saw |v| < 2^-960 is recomputed unmasked (exact), so every
// lane ends bit-identical to the scalar update.
TEXT ·subRows4AVX2(SB), NOSPLIT, $0-48
	MOVQ di+0(FP), DI
	MOVQ d+8(FP), SI
	MOVQ m+16(FP), R8
	SHLQ $3, R8               // R8 = row stride in bytes
	MOVQ l+24(FP), AX
	MOVQ tiny+32(FP), DX
	MOVQ cols+40(FP), CX
	VBROADCASTSD 0(AX), Y0    // Y0..Y3 = l[0..3]
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VPBROADCASTQ 0(DX), Y9    // Y9..Y12 = tiny[0..3], as bits
	VPBROADCASTQ 8(DX), Y10
	VPBROADCASTQ 16(DX), Y11
	VPBROADCASTQ 24(DX), Y12
	VPBROADCASTQ absMask<>(SB), Y13
	VPBROADCASTQ vMin<>(SB), Y14
	VPBROADCASTQ posInf<>(SB), Y15
	LEAQ (SI)(R8*1), R9       // row k+1
	LEAQ (R9)(R8*1), R10      // row k+2
	LEAQ (R10)(R8*1), R11     // row k+3
	XORQ BX, BX               // BX = column

loop:
	VMOVUPD  (DI)(BX*8), Y4   // Y4 = v
	VPCMPEQQ Y8, Y8, Y8       // Y8 = lanes that kept every product
	VMOVDQU  Y15, Y7          // Y7 = min |v| entering a step (NaN ignored)

// STEP is k step r: row r's values at row(BX*8), multiplier L, bound T.
#define STEP(row, L, T) \
	VMOVUPD  row(BX*8), Y5 \
	VPAND    Y13, Y5, Y6 \
	VPCMPGTQ T, Y6, Y6 \
	VPAND    Y6, Y5, Y5 \
	VMULPD   L, Y5, Y5 \
	VPAND    Y6, Y8, Y8 \
	VPAND    Y13, Y4, Y6 \
	VMINPD   Y7, Y6, Y7 \
	VSUBPD   Y5, Y4, Y4

	STEP((SI), Y0, Y9)
	STEP((R9), Y1, Y10)
	STEP((R10), Y2, Y11)
	STEP((R11), Y3, Y12)
	VPCMPGTQ Y7, Y14, Y7      // Y7 = min |v| < 2^-960
	VPANDN   Y7, Y8, Y8       // Y8 = dropped a product and saw a small v
	VPTEST   Y8, Y8
	JNZ      exact
	VMOVUPD  Y4, (DI)(BX*8)

next:
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  loop
	VZEROUPPER
	RET

exact:
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (SI)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD (R9)(BX*8), Y5
	VMULPD  Y1, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD (R10)(BX*8), Y5
	VMULPD  Y2, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD (R11)(BX*8), Y5
	VMULPD  Y3, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	JMP     next

DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8
DATA vMin<>+0(SB)/8, $0x03f0000000000000    // 2^-960
GLOBL vMin<>(SB), RODATA|NOPTR, $8
DATA posInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $8

// func dotColsAVX2(row *float64, n int, packed *float64, bias float64, out *float64, panels int)
//
// sqDistColsAVX2's loop with the difference and square replaced by a
// product: lane l of accumulator Yk starts at bias and, per coordinate i,
// computes p = c·row[i] (VMULPD, column value first) and sum + p (VADDPD,
// sum first) — the Go loop's MULSD and ADDSD with the same operands in
// the same order.
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), SI
	MOVQ n+8(FP), AX
	SHLQ $3, AX               // AX = 8n, the end of row in bytes
	MOVQ packed+16(FP), BX    // BX = the pass's first panel
	VBROADCASTSD bias+24(FP), Y9
	MOVQ out+32(FP), DX
	MOVQ panels+40(FP), R9    // R9 = panels left
	MOVQ AX, R8
	SHLQ $2, R8               // R8 = panel stride in bytes (32n)

dblock16:
	CMPQ R9, $4
	JLT  dblock4
	LEAQ (BX)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R13)(R8*1), R14
	VMOVAPD Y9, Y0
	VMOVAPD Y9, Y1
	VMOVAPD Y9, Y2
	VMOVAPD Y9, Y3
	XORQ R11, R11

dloop16:
	VBROADCASTSD (SI)(R11*1), Y4
	VMOVUPD (BX)(R11*4), Y5
	VMOVUPD (R12)(R11*4), Y6
	VMOVUPD (R13)(R11*4), Y7
	VMOVUPD (R14)(R11*4), Y8
	VMULPD  Y4, Y5, Y5
	VMULPD  Y4, Y6, Y6
	VMULPD  Y4, Y7, Y7
	VMULPD  Y4, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ $8, R11
	CMPQ R11, AX
	JLT  dloop16
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	LEAQ (R14)(R8*1), BX
	SUBQ $4, R9
	JMP  dblock16

dblock4:
	CMPQ R9, $0
	JEQ  ddone
	VMOVAPD Y9, Y0
	XORQ R11, R11

dloop4:
	VBROADCASTSD (SI)(R11*1), Y4
	VMOVUPD (BX)(R11*4), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ $8, R11
	CMPQ R11, AX
	JLT  dloop4
	VMOVUPD Y0, (DX)
	ADDQ $32, DX
	ADDQ R8, BX
	DECQ R9
	JMP  dblock4

ddone:
	VZEROUPPER
	RET

// func addScaledAVX2(dst *float64, n int, coefs *float64, vecs *[]float64, k int)
//
// Lane l of accumulator Yb holds dst[i+4b+l] for the pass's block of
// indices i. Per term t, in order, it computes p = vecs[t][i]·coefs[t]
// (VMULPD, vector value first) and a + p (VADDPD, a first): the Go loop's
// MULSD and ADDSD with the same operands in the same order. vecs[t]'s
// data pointer is the first word of its slice header, 24 bytes apart.
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	SHLQ $3, CX               // CX = 8n, the end of dst in bytes
	MOVQ coefs+16(FP), SI
	MOVQ vecs+24(FP), R8
	MOVQ k+32(FP), R9
	IMUL3Q $24, R9, R9
	ADDQ R8, R9               // R9 = the end of the slice headers
	XORQ BX, BX               // BX = 8i, the block's first index in bytes

ablock16:
	LEAQ 128(BX), AX
	CMPQ AX, CX
	JGT  ablock4
	VMOVUPD 0(DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	MOVQ SI, R10              // R10 = &coefs[t]
	MOVQ R8, R11              // R11 = &vecs[t]

aloop16:
	VBROADCASTSD (R10), Y4
	MOVQ (R11), R12
	VMOVUPD 0(R12)(BX*1), Y5
	VMOVUPD 32(R12)(BX*1), Y6
	VMOVUPD 64(R12)(BX*1), Y7
	VMOVUPD 96(R12)(BX*1), Y8
	VMULPD  Y4, Y5, Y5
	VMULPD  Y4, Y6, Y6
	VMULPD  Y4, Y7, Y7
	VMULPD  Y4, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ $8, R10
	ADDQ $24, R11
	CMPQ R11, R9
	JLT  aloop16
	VMOVUPD Y0, 0(DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	MOVQ AX, BX
	JMP  ablock16

ablock4:
	CMPQ BX, CX
	JGE  adone
	VMOVUPD (DI)(BX*1), Y0
	MOVQ SI, R10
	MOVQ R8, R11

aloop4:
	VBROADCASTSD (R10), Y4
	MOVQ (R11), R12
	VMOVUPD (R12)(BX*1), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ $8, R10
	ADDQ $24, R11
	CMPQ R11, R9
	JLT  aloop4
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ $32, BX
	JMP  ablock4

adone:
	VZEROUPPER
	RET

// func adamAVX2(w, grad, m, v *float64, n int, c *AdamCoefs)
//
// Four elements per step, each operation rounded on its own and with the
// Go loop's operands in its order (the compiled code adds the gradient's
// term first): m = (c1·g) + (m·b1), v = ((c2·g)·g) + (v·b2),
// w = w − (m/bc1·lr) / (√(v/bc2) + eps), grad = 0.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX
	VBROADCASTSD 0(AX), Y8    // b1
	VBROADCASTSD 8(AX), Y9    // c1
	VBROADCASTSD 16(AX), Y10  // b2
	VBROADCASTSD 24(AX), Y11  // c2
	VBROADCASTSD 32(AX), Y12  // bc1
	VBROADCASTSD 40(AX), Y13  // bc2
	VBROADCASTSD 48(AX), Y14  // lr
	VBROADCASTSD 56(AX), Y15  // eps
	VXORPD Y7, Y7, Y7
	XORQ BX, BX

adamloop:
	VMOVUPD (SI)(BX*8), Y0    // g
	VMOVUPD (R8)(BX*8), Y1
	VMULPD  Y8, Y1, Y1        // m·b1
	VMULPD  Y0, Y9, Y2        // c1·g
	VADDPD  Y1, Y2, Y1        // c1·g + m·b1
	VMOVUPD Y1, (R8)(BX*8)
	VMOVUPD (R9)(BX*8), Y3
	VMULPD  Y10, Y3, Y3       // v·b2
	VMULPD  Y0, Y11, Y4       // c2·g
	VMULPD  Y0, Y4, Y4        // (c2·g)·g
	VADDPD  Y3, Y4, Y3        // (c2·g)·g + v·b2
	VMOVUPD Y3, (R9)(BX*8)
	VDIVPD  Y12, Y1, Y1       // mHat = m/bc1
	VDIVPD  Y13, Y3, Y3       // vHat = v/bc2
	VMULPD  Y14, Y1, Y1       // mHat·lr
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3       // √vHat + eps
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(BX*8), Y5
	VSUBPD  Y1, Y5, Y5        // w − step
	VMOVUPD Y5, (DI)(BX*8)
	VMOVUPD Y7, (SI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  adamloop
	VZEROUPPER
	RET
