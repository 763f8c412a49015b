#include "textflag.h"

// The AES-128-CTR kernel behind ctrHMAC.ctrXor on amd64 (ctr_amd64.go
// declares these and checks CPUID for AES-NI, SSSE3 and SSE4.1 first).

// bswapMask reverses the 16 bytes of an XMM register (PSHUFB): the
// counter is built as two little-endian quadwords and goes out as one
// 128-bit big-endian block.
DATA bswapMask<>+0x00(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+0x08(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), NOPTR|RODATA, $16

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// EXPAND derives the next AES-128 round key into X0 from the previous one
// in X0 (FIPS-197 §5.2, as in Intel's AES-NI white paper): X1 takes
// SubWord(RotWord(w3)) ⊕ rcon in all four lanes, X2 shifts a copy of the
// previous key up one word at a time so that X0 becomes its prefix XOR,
// then X1 is folded in. The key is stored at off(DI).
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVO            X0, X2; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PSLLO           $4, X2; \
	PXOR            X2, X0; \
	PXOR            X1, X0; \
	MOVOU           X0, off(DI)

// func expandKey128(key []byte, rk *[176]byte)
TEXT ·expandKey128(SB), NOSPLIT, $0-32
	MOVQ  key_base+0(FP), AX
	MOVQ  rk+24(FP), DI
	MOVOU (AX), X0
	MOVOU X0, (DI)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	PXOR  X0, X0
	PXOR  X1, X1
	PXOR  X2, X2
	RET

// CTR builds the counter block R8:R9 (high:low) in x and advances the
// counter by one, carrying from the low quadword into the high one.
#define CTR(x) \
	MOVQ   R9, x; \
	PINSRQ $1, R8, x; \
	PSHUFB X9, x; \
	ADDQ   $1, R9; \
	ADCQ   $0, R8

// ROUND runs one AES round, the round key at off(AX), on all eight
// blocks; the eight AESENCs are independent, so they pipeline.
#define ROUND(off) \
	MOVOU  off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3; \
	AESENC X8, X4; \
	AESENC X8, X5; \
	AESENC X8, X6; \
	AESENC X8, X7

// ENCRYPT8 encrypts the next eight counter blocks under the key schedule
// at AX into X0–X7.
#define ENCRYPT8 \
	CTR(X0); \
	CTR(X1); \
	CTR(X2); \
	CTR(X3); \
	CTR(X4); \
	CTR(X5); \
	CTR(X6); \
	CTR(X7); \
	MOVOU (AX), X8; \
	PXOR  X8, X0; \
	PXOR  X8, X1; \
	PXOR  X8, X2; \
	PXOR  X8, X3; \
	PXOR  X8, X4; \
	PXOR  X8, X5; \
	PXOR  X8, X6; \
	PXOR  X8, X7; \
	ROUND(16); \
	ROUND(32); \
	ROUND(48); \
	ROUND(64); \
	ROUND(80); \
	ROUND(96); \
	ROUND(112); \
	ROUND(128); \
	ROUND(144); \
	MOVOU      160(AX), X8; \
	AESENCLAST X8, X0; \
	AESENCLAST X8, X1; \
	AESENCLAST X8, X2; \
	AESENCLAST X8, X3; \
	AESENCLAST X8, X4; \
	AESENCLAST X8, X5; \
	AESENCLAST X8, X6; \
	AESENCLAST X8, X7

// XOR xors block x into src at off and stores it to dst at off.
#define XOR(x, off) \
	MOVOU off(SI), X10; \
	PXOR  X10, x; \
	MOVOU x, off(DI)

// func ctrKernel(rk *[176]byte, ks *[1024]byte, dst []byte, src []byte, hi uint64, lo uint64)
//
// Each whole 128 bytes of src takes one pass: eight counter blocks are
// encrypted side by side and XORed into dst. A tail under 128 bytes takes
// one more pass, whose keystream goes to ks and is XORed in from there,
// 16 bytes at a time, then 8, then byte by byte.
TEXT ·ctrKernel(SB), NOSPLIT, $0-80
	MOVQ  rk+0(FP), AX
	MOVQ  ks+8(FP), DX
	MOVQ  dst_base+16(FP), DI
	MOVQ  src_base+40(FP), SI
	MOVQ  src_len+48(FP), CX
	MOVQ  hi+64(FP), R8
	MOVQ  lo+72(FP), R9
	TESTQ CX, CX
	JZ    done
	MOVOU bswapMask<>(SB), X9
	MOVQ  CX, BX
	ANDQ  $127, BX
	SHRQ  $7, CX
	JZ    tail

pass:
	ENCRYPT8
	XOR(X0, 0)
	XOR(X1, 16)
	XOR(X2, 32)
	XOR(X3, 48)
	XOR(X4, 64)
	XOR(X5, 80)
	XOR(X6, 96)
	XOR(X7, 112)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  pass

tail:
	TESTQ BX, BX
	JZ    wipe
	ENCRYPT8
	MOVOU X0, 0(DX)
	MOVOU X1, 16(DX)
	MOVOU X2, 32(DX)
	MOVOU X3, 48(DX)
	MOVOU X4, 64(DX)
	MOVOU X5, 80(DX)
	MOVOU X6, 96(DX)
	MOVOU X7, 112(DX)

tail16:
	CMPQ  BX, $16
	JB    tail1
	MOVOU (SI), X10
	MOVOU (DX), X11
	PXOR  X11, X10
	MOVOU X10, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	ADDQ  $16, DX
	SUBQ  $16, BX
	JMP   tail16

	CMPQ  BX, $8
	JB    tail1
	MOVQ  (SI), R10
	XORQ  (DX), R10
	MOVQ  R10, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, DX
	SUBQ  $8, BX

tail1:
	TESTQ BX, BX
	JZ    wipe
	MOVB  (SI), R10
	XORB  (DX), R10
	MOVB  R10, (DI)
	INCQ  SI
	INCQ  DI
	INCQ  DX
	DECQ  BX
	JMP   tail1

	// Leave no round key or keystream in the vector registers.
wipe:
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7
	PXOR X8, X8
	PXOR X10, X10
	PXOR X11, X11

done:
	RET
