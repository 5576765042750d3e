//go:build !linux

package cpu

import "runtime"

// threadID identifies the calling execution context where no cheap OS
// thread id exists: the goroutine id, parsed from the stack header
// ("goroutine <id> [...") — the only portable way to name a goroutine,
// and not a cheap one: the runtime unwinds the whole stack to fill even a
// tiny buffer.  A binding is only installed under LockOSThread, where
// goroutine and OS thread are one-to-one, so it is an equivalent routing
// key.  Slower than gettid; correctness identical.
func threadID() int {
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
