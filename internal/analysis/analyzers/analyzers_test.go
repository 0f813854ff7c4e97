package analyzers_test

import (
	"testing"

	"numarck/internal/analysis"
	"numarck/internal/analysis/analysistest"
	"numarck/internal/analysis/analyzers"
)

func TestFloatcmp(t *testing.T) {
	analysistest.Run(t, "testdata/floatcmp", analyzers.Floatcmp{})
}

func TestWaitgroup(t *testing.T) {
	analysistest.Run(t, "testdata/waitgroup", analyzers.Waitgroup{})
}

func TestErrcheck(t *testing.T) {
	analysistest.Run(t, "testdata/errcheck", analyzers.Errcheck{})
}

func TestDoccomment(t *testing.T) {
	analysistest.Run(t, "testdata/doccomment", analyzers.Doccomment{})
}

func TestFsseam(t *testing.T) {
	analysistest.Run(t, "testdata/fsseam", analyzers.Fsseam{})
}

func TestErrwrap(t *testing.T) {
	analysistest.Run(t, "testdata/errwrap", analyzers.Errwrap{})
}

func TestObsstage(t *testing.T) {
	analysistest.Run(t, "testdata/obsstage", analyzers.Obsstage{})
}

// TestAll pins the analyzer set: names must be unique, non-empty and
// documented, so //lint:ignore targets stay stable.
func TestAll(t *testing.T) {
	all := analyzers.All()
	if len(all) != 7 {
		t.Fatalf("expected 7 analyzers, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name() == "" || a.Doc() == "" {
			t.Errorf("analyzer %T missing name or doc", a)
		}
		if a.Name() == "lint" {
			t.Errorf("analyzer name %q is reserved for the framework", a.Name())
		}
		if seen[a.Name()] {
			t.Errorf("duplicate analyzer name %q", a.Name())
		}
		seen[a.Name()] = true
	}
	var _ []analysis.Analyzer = all
}
