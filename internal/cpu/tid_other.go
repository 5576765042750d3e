//go:build !linux && !amd64

package cpu

import "runtime"

// routeKey identifies the calling goroutine where neither a goroutine
// key (tid_amd64.s) nor a cheap OS thread id exists: the goroutine id,
// parsed from the stack header ("goroutine <id> [...") — the only
// portable way to name a goroutine, and not a cheap one: the runtime
// unwinds the whole stack to fill even a tiny buffer.  Slower than the
// other keys; correctness identical.
func routeKey() int {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id := 0
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int(c-'0')
	}
	return id
}
