// Package fsseam exercises the faultfs-seam analyzer: direct mutating
// os calls, in a function or a closure, are flagged; calls through the
// seam interface, read-only os entry points and local helpers that
// merely wrap the seam are clean.
package fsseam

import "os"

// FS mimics the faultfs.FS seam: calls through it have an interface
// method as their callee, which is exactly what makes them clean.
type FS interface {
	Create(name string) (*os.File, error)
	Remove(name string) error
}

func direct() {
	_ = os.Remove("x") // want `mutating call os.Remove escapes the faultfs.FS seam`
}

func inClosure() error {
	publish := func() error {
		return os.WriteFile("idx", nil, 0o644) // want `mutating call os.WriteFile escapes the faultfs.FS seam`
	}
	return publish()
}

func fileMethod(f *os.File) error {
	_, err := f.Write(nil) // want `mutating call os.Write escapes the faultfs.FS seam`
	return err
}

func throughSeam(fsys FS) {
	_ = fsys.Remove("x")
}

func viaHelper(fsys FS) {
	throughSeam(fsys)
}

func readOnly() {
	f, err := os.Open("x")
	if err == nil {
		_ = f.Close()
	}
}
