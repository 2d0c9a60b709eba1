package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestViolationFailsRun is the fixture-backed proof behind the CI
// wiring: introducing a violation makes icplint (and hence `make
// lint` / `make check`) exit nonzero.
func TestViolationFailsRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/src/bad/internal/icp"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[detrange]") {
		t.Fatalf("output missing detrange finding:\n%s", out.String())
	}
}

func TestCleanRunExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/src/clean/internal/icp"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if strings.Contains(out.String(), "finding") {
		t.Fatalf("clean run reported findings:\n%s", out.String())
	}
}

// TestPragmaAllowsFinding checks the //lint:allow escape: the finding
// is suppressed, summarized, and does not fail the run.
func TestPragmaAllowsFinding(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/src/allowed/internal/icp"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "pragma-allowed findings: detrange=1") {
		t.Fatalf("output missing pragma summary:\n%s", out.String())
	}
}

// TestStalePragmaFailsRun checks pragma hygiene: a pragma suppressing
// nothing is itself a finding.
func TestStalePragmaFailsRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/src/stale/internal/icp"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[pragma]") || !strings.Contains(out.String(), "unused //lint:allow") {
		t.Fatalf("output missing stale-pragma finding:\n%s", out.String())
	}
}

// TestUnknownFlagIsUsageError checks the usage exit: icplint takes no
// flags, so any flag is a usage error (exit 2), not a clean run.
func TestUnknownFlagIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./testdata/src/clean/internal/icp"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}
