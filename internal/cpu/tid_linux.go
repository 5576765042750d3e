//go:build linux && !amd64

package cpu

import "syscall"

// routeKey identifies the calling OS thread where no goroutine key is
// read cheaply (tid_amd64.s reads one on amd64).  gettid has no vDSO
// entry: it is a real syscall, paid once per public charge call on a
// routed engine — never on a standalone engine.  A binding is only
// installed under LockOSThread, where goroutine and OS thread are
// one-to-one, so the thread is an equivalent routing key.
func routeKey() int { return syscall.Gettid() }
