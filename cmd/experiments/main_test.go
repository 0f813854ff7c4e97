package main

import "testing"

func TestRunSingleExperiment(t *testing.T) {
	// fig1 is the cheapest experiment; it exercises the dispatch path.
	if err := run("fig1", 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithIterationOverride(t *testing.T) {
	if err := run("fig6", 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", 0, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPick(t *testing.T) {
	if pick(0, 7) != 7 || pick(3, 7) != 3 {
		t.Error("pick broken")
	}
}
