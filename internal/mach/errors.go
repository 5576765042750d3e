package mach

import "errors"

// Kernel return codes, modeled on Mach's kern_return_t values.
var (
	ErrInvalidName   = errors.New("mach: invalid port name")
	ErrInvalidRight  = errors.New("mach: name does not denote the required right")
	ErrDeadPort      = errors.New("mach: port is dead")
	ErrNoSpace       = errors.New("mach: port name space exhausted")
	ErrTimeout       = errors.New("mach: operation timed out")
	ErrQueueFull     = errors.New("mach: message queue full")
	ErrInvalidTask   = errors.New("mach: invalid or terminated task")
	ErrInvalidThread = errors.New("mach: invalid or terminated thread")
	ErrMsgTooLarge   = errors.New("mach: inline message body exceeds limit")
	ErrReplyFailed   = errors.New("mach: server failed to deliver the RPC reply")
	ErrAborted       = errors.New("mach: operation aborted by thread termination")
	ErrNotReceiver   = errors.New("mach: caller does not hold the receive right")
	ErrRightExists   = errors.New("mach: name already denotes a right")
	ErrThreadRunning = errors.New("mach: pool slot is still running")
	ErrBatchMismatch = errors.New("mach: vectored reply does not match the request batch")
	ErrBatchRights   = errors.New("mach: batched sub-messages cannot carry port rights")
	ErrNotSupported  = errors.New("mach: operation not supported on this path")
)
