// Package panics turns a panic on a worker goroutine into an error of
// the call that started the worker. Go recovers a panic only on the
// goroutine that raised it, so a panic on a goroutine a library call
// started ends the process, whatever the caller does about it; every
// worker the codec and the store start runs its work through Catch
// instead, and the call returns the panic as its error.
package panics

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Error is a recovered panic: the value it was raised with and the
// stack of the goroutine that raised it.
type Error struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack stays in the Stack field.
func (e *Error) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap returns the panic value when it is an error (a runtime.Error,
// say), so errors.As reaches it.
func (e *Error) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// Catch runs fn and returns its error or, when fn panics, an *Error
// holding the panic value and the panicking goroutine's stack. A panic
// whose value is already an *Error — one a worker caught and raised
// again on its caller's goroutine — comes back as it is, with the stack
// of the goroutine that first raised it.
func Catch(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			e, ok := v.(*Error)
			if !ok {
				e = &Error{Value: v, Stack: debug.Stack()}
			}
			err = e
		}
	}()
	return fn()
}

// Raised reports whether err is, or wraps, a recovered panic. A run
// that fails with one drops its pooled scratch, which the panic may
// have left half written, instead of putting it back.
func Raised(err error) bool {
	var e *Error
	return errors.As(err, &e)
}
