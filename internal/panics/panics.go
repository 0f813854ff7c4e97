// Package panics turns a panic on a worker goroutine into an error of
// the call that started the worker. Go recovers a panic only on the
// goroutine that raised it, so a panic on a goroutine a library call
// started ends the process, whatever the caller does about it; every
// worker the codec and the store start runs its work through Catch
// instead, and the call returns the panic as its error.
//
// Each is the one fan-out: every worker loop starts through it. Two
// schedulers that are more than a fan-out keep their own goroutines:
// core.OrderedChunks, an ordered ring of slot tokens, and checkpoint's
// loadPool, a task queue beside the caller's reads. dist.Encode catches
// nothing: its ranks meet in collectives, so a caught panic would leave
// its peers blocked in the next AllReduce forever, where an uncaught
// one ends the process.
package panics

import (
	"cmp"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
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

// Each runs fn(w) for every w in [0, workers), each under Catch, and
// returns the error of the lowest-numbered worker that failed. At one
// worker or fewer it runs fn(0) on the caller's goroutine; otherwise it
// starts one goroutine per worker and returns once all of them have.
// How work is split among the workers is fn's to decide.
func Each(workers int, fn func(w int) error) error {
	if workers <= 1 {
		return Catch(func() error { return fn(0) })
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = Catch(func() error { return fn(w) })
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}
