package engine

import (
	"strings"
	"testing"
	"time"
)

func TestVerdictString(t *testing.T) {
	if Safe.String() != "safe" || Unsafe.String() != "unsafe" || Unknown.String() != "unknown" {
		t.Error("verdict strings")
	}
	if Verdict(99).String() != "unknown" {
		t.Error("out-of-range verdict should read unknown")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Verdict: Safe, Depth: 3, Runtime: 1500 * time.Millisecond}
	s := r.String()
	if !strings.Contains(s, "safe") || !strings.Contains(s, "depth 3") {
		t.Errorf("Result.String = %q", s)
	}
}

func TestBudgetZeroValue(t *testing.T) {
	var b Budget
	if b.Expired() {
		t.Error("zero budget must never expire")
	}
	if b.Elapsed() != 0 {
		t.Error("unstarted budget has no elapsed time")
	}
	b = b.Start()
	if b.Expired() {
		t.Error("no-timeout budget must not expire")
	}
	if b.Elapsed() < 0 {
		t.Error("elapsed must be non-negative")
	}
}

func TestBudgetTimeout(t *testing.T) {
	b := Budget{Timeout: time.Nanosecond}.Start()
	time.Sleep(time.Millisecond)
	if !b.Expired() {
		t.Error("nanosecond budget should expire")
	}
	long := Budget{Timeout: time.Hour}.Start()
	if long.Expired() {
		t.Error("hour budget should not expire")
	}
}

func TestBudgetUnstartedWithTimeout(t *testing.T) {
	b := Budget{Timeout: time.Nanosecond}
	if b.Expired() {
		t.Error("unstarted budget never expires")
	}
}

func TestBudgetStopNote(t *testing.T) {
	done := make(chan struct{})
	b := Budget{Timeout: time.Hour}.WithDone(done).Start()
	if got := b.StopNote("base"); got != "solver budget (base)" {
		t.Errorf("running budget: %q, want the cap's label", got)
	}
	close(done)
	if got := b.StopNote("base"); got != "timeout" {
		t.Errorf("cancelled budget: %q, want \"timeout\"", got)
	}
	late := Budget{Timeout: time.Nanosecond}.Start()
	time.Sleep(time.Millisecond)
	if got := late.StopNote("base"); got != "timeout" {
		t.Errorf("timed-out budget: %q, want \"timeout\"", got)
	}
}

func TestBoundAndCubeString(t *testing.T) {
	b := CertBound{Var: "x", Le: true, B: 2}
	if b.String() != "x<=2" {
		t.Errorf("CertBound = %q", b.String())
	}
	c := Cube{{Var: "x", Le: false, B: 1}, {Var: "y", Le: true, B: 3}}
	if c.String() != "x>=1 & y<=3" {
		t.Errorf("Cube = %q", c.String())
	}
}
