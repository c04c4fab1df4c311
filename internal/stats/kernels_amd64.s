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
