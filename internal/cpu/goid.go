package cpu

import "runtime"

// GoroutineID parses the calling goroutine's ID from its stack header —
// the only portable way to name a goroutine, and not a cheap one: the
// runtime unwinds the whole stack to fill even a tiny buffer (~10µs under
// a file-server handler), so callers resolve an identity once and keep
// it.  Shared by the Complex's non-Linux routing key and klat.
func GoroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// The header is "goroutine <id> [...".
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
