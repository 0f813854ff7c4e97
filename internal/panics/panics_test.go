package panics

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCatch(t *testing.T) {
	want := errors.New("plain")
	if err := Catch(func() error { return want }); err != want || Raised(err) {
		t.Fatalf("Catch of an ordinary error = %v (raised %v), want it unchanged", err, Raised(err))
	}
	if err := Catch(func() error { return nil }); err != nil {
		t.Fatalf("Catch of a clean run = %v", err)
	}

	err := Catch(func() error {
		var s []int
		_ = s[3] // index out of range: a runtime.Error
		return nil
	})
	var e *Error
	if !errors.As(err, &e) || !Raised(err) {
		t.Fatalf("Catch of a panic = %v, want an *Error", err)
	}
	var re runtime.Error
	if !errors.As(err, &re) {
		t.Errorf("the runtime.Error panic value is not reachable through errors.As: %v", err)
	}
	if !strings.Contains(string(e.Stack), "TestCatch") {
		t.Errorf("stack does not name the panicking function:\n%s", e.Stack)
	}

	// A caught panic raised again keeps its first stack.
	again := Catch(func() error { panic(e) })
	if again != error(e) {
		t.Errorf("re-raised *Error came back as %v, want the same value", again)
	}
	if Raised(errors.New("x")) || Raised(nil) {
		t.Error("Raised reports a panic for an ordinary error")
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

func TestEach(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 5} {
		runs := make([]atomic.Int32, max(workers, 1))
		if err := Each(workers, func(w int) error {
			runs[w].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for w := range runs {
			if n := runs[w].Load(); n != 1 {
				t.Errorf("%d workers: worker %d ran %d times, want once", workers, w, n)
			}
		}
	}

	// The lowest-numbered worker's error wins, whichever fails first.
	errs := []error{nil, errors.New("w1"), nil, errors.New("w3"), errors.New("w4")}
	release := make(chan struct{})
	err := Each(len(errs), func(w int) error {
		if w == 1 {
			<-release // worker 1 fails after 3 and 4 have
		} else if w == 4 {
			close(release)
		}
		return errs[w]
	})
	if err != errs[1] {
		t.Errorf("Each = %v, want worker 1's error", err)
	}

	// A panic on worker 3 of 5 is its error, returned once every other
	// worker, each finishing only after the panic, has finished.
	var finished atomic.Int32
	panicked := make(chan struct{})
	err = Each(5, func(w int) error {
		if w == 3 {
			close(panicked)
			panic("boom")
		}
		<-panicked
		finished.Add(1)
		return nil
	})
	var e *Error
	if !errors.As(err, &e) || e.Value != "boom" {
		t.Fatalf("Each with a panicking worker = %v, want an *Error", err)
	}
	if n := finished.Load(); n != 4 {
		t.Errorf("Each returned with %d of the other 4 workers finished", n)
	}

	// One worker or fewer runs on the caller's goroutine.
	caller := goid()
	for _, workers := range []int{0, 1} {
		var ran string
		if err := Each(workers, func(int) error { ran = goid(); return nil }); err != nil || ran != caller {
			t.Errorf("%d workers: fn ran on goroutine %s (err %v), want the caller's %s", workers, ran, err, caller)
		}
	}
	if err := Each(1, func(int) error { panic("inline") }); !Raised(err) {
		t.Errorf("a panic of the inline worker = %v, want an *Error", err)
	}
}
