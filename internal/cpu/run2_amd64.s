#include "textflag.h"

// func run2x4(sets []uint32, tag uint32) (misses uint64)
//
// Each step holds four two-way sets, way 0 (the most recent) in the low
// dword of each qword.  A hit in way 0 (h0) keeps way 1 behind the tag,
// anything else moves way 0 there; a set missed unless h0 or h1.
TEXT ·run2x4(SB), NOSPLIT, $0-40
	MOVQ sets_base+0(FP), SI
	MOVQ sets_len+8(FP), CX
	SHRQ $3, CX                // steps
	MOVQ CX, DX
	SHLQ $2, DX                // sets visited: 4 per step
	XORQ BX, BX                // hits
	TESTQ CX, CX
	JZ   done
	MOVL tag+24(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0

loop:
	VMOVDQU   (SI), Y1
	VPCMPEQD  Y0, Y1, Y2       // h0, h1 per way
	VPSHUFD   $0xb1, Y1, Y3    // ways swapped
	VPSHUFD   $0xa0, Y2, Y4    // h0 in both dwords of its set
	VPBLENDVB Y4, Y1, Y3, Y5   // way 1's slot: h0 ? way 1 : way 0
	VPBLENDD  $0x55, Y0, Y5, Y5 // way 0's slot: tag
	VMOVDQU   Y5, (SI)
	VPOR      Y2, Y4, Y6       // h0|h1 in each set's high dword
	VMOVMSKPD Y6, AX
	POPCNTL   AX, AX
	ADDQ      AX, BX
	ADDQ      $32, SI
	DECQ      CX
	JNZ       loop
	VZEROUPPER

done:
	SUBQ BX, DX
	MOVQ DX, misses+32(FP)
	RET

// func cpuid(eax, ecx uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eax+0(FP), AX
	MOVL ecx+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
