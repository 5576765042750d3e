//go:build !linux

package cpu

// threadID identifies the calling execution context where no cheap OS
// thread id exists: the goroutine id.  A binding is only installed under
// LockOSThread, where goroutine and OS thread are one-to-one, so it is an
// equivalent routing key.  Slower than gettid; correctness identical.
func threadID() int { return int(GoroutineID()) }
