package panics

import (
	"errors"
	"runtime"
	"strings"
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
