package cpu

// routeKey identifies the calling goroutine: the address of its runtime
// record, read from thread-local storage by tid_amd64.s in two
// instructions, with no syscall.  A binding is installed and removed by
// its own goroutine (Complex.Bind), so the key names exactly the
// goroutine that may see it.  The runtime reuses an exited goroutine's
// record for a new one, so a binding left behind would route a stranger;
// Bind's undo removes it.
func routeKey() int
