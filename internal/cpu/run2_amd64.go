package cpu

// avx2 selects the vector kernel: set at init when the CPU has AVX2 and
// POPCNT and the OS saves the YMM registers.  Tests clear it to run the
// Go loop on the same host.
var avx2 = hasAVX2()

// run2x4 is run2Go over the first len(sets)/8 four-set steps of sets
// (run2_amd64.s): per step one 32-byte load, a compare of all eight ways
// against tag, and one store of tag and each set's surviving way.
//
//go:noescape
func run2x4(sets []uint32, tag uint32) (misses uint64)

// cpuid returns the CPUID leaf eax, subleaf ecx.
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// xgetbv0 returns the low word of XCR0, the register state the OS saves.
func xgetbv0() uint32

// hasAVX2 reports whether run2x4 can run: AVX2 (CPUID 7.0:EBX bit 5),
// POPCNT (1:ECX bit 23) and OSXSAVE (1:ECX bit 27), with XCR0 saving the
// XMM and YMM state (bits 1 and 2).
func hasAVX2() bool {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(1<<23) == 0 || c1&(1<<27) == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}
