//go:build !amd64

package cpu

// avx2 is false off amd64: there is no vector kernel, and every two-way
// run takes run2Go.
var avx2 = false

// run2x4 stands in for the amd64 vector kernel, which avx2 = false keeps
// cache.run from calling.
func run2x4(sets []uint32, tag uint32) uint64 { return run2Go(sets[:len(sets)&^7], tag) }
