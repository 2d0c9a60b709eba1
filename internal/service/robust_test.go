package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"icpic3/internal/engine"
)

// Distinct system names per test: the fault injector is keyed by name
// and tests may run concurrently within the package.

const panicModel = `
system panicvictim
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`

const stallModel = `
system stallvictim
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`

const badCertModel = `
system badcertvictim
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`

// TestInjectedPanicIsIsolated proves the panic-isolation contract: an
// engine panic costs one verdict, not a worker or the server.  With
// retries disabled the job finishes Unknown with the panic in the note,
// and the service keeps answering other jobs afterwards.
func TestInjectedPanicIsIsolated(t *testing.T) {
	disarm := engine.InjectFault("panicvictim", engine.FaultPanic)
	defer disarm()

	s := newTestService(t, Config{Workers: 2, MaxRetries: -1})
	st, err := s.Submit(Request{Source: panicModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = s.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("state = %s", st.State)
	}
	if st.Verdict != "unknown" || !strings.Contains(st.Note, "panic") {
		t.Fatalf("verdict = %s, note = %q", st.Verdict, st.Note)
	}
	if st.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 with retries disabled", st.Attempts)
	}
	if got := s.Metrics().Panics(); got != 1 {
		t.Errorf("panics metric = %d", got)
	}

	// the worker that recovered must still serve an honest job
	st2, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	st2, err = s.Wait(st2.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait after panic: %v", err)
	}
	if st2.Verdict != "safe" {
		t.Fatalf("post-panic job verdict = %s (%s)", st2.Verdict, st2.Note)
	}
}

// TestInjectedPanicRetriesAndDegrades proves the retry/degrade policy:
// the armed panic fires on every attempt, so a job with one retry makes
// two attempts and the second runs on the degraded engine.
func TestInjectedPanicRetriesAndDegrades(t *testing.T) {
	disarm := engine.InjectFault("panicvictim", engine.FaultPanic)
	defer disarm()

	s := newTestService(t, Config{Workers: 2, MaxRetries: 1, RetryBackoff: time.Millisecond})
	st, err := s.Submit(Request{Source: panicModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = s.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
	if st.EngineUsed != "portfolio" {
		t.Errorf("engine_used = %q, want portfolio (degraded from ic3)", st.EngineUsed)
	}
	if st.Verdict != "unknown" {
		t.Errorf("verdict = %s (both attempts panic)", st.Verdict)
	}
	m := s.Metrics()
	if m.Retried() != 1 || m.Degraded() != 1 || m.Panics() != 2 {
		t.Errorf("retried=%d degraded=%d panics=%d", m.Retried(), m.Degraded(), m.Panics())
	}
}

// TestInjectedStallIsReaped proves the watchdog: a run that publishes no
// progress heartbeat for StallTimeout is killed through its budget and
// reported as stalled (not as an ordinary timeout), well before the
// job's wall-clock budget.
func TestInjectedStallIsReaped(t *testing.T) {
	disarm := engine.InjectFault("stallvictim", engine.FaultStall)
	defer disarm()

	s := newTestService(t, Config{
		Workers:      2,
		StallTimeout: 50 * time.Millisecond,
		MaxRetries:   -1,
	})
	start := time.Now()
	st, err := s.Submit(Request{Source: stallModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = s.Wait(st.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("state = %s after %v", st.State, time.Since(start))
	}
	if st.Verdict != "unknown" || !strings.HasPrefix(st.Note, "stalled:") {
		t.Fatalf("verdict = %s, note = %q", st.Verdict, st.Note)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("stall reaped only after %v (watchdog did not fire)", elapsed)
	}
	if got := s.Metrics().Stalled(); got != 1 {
		t.Errorf("stalled metric = %d", got)
	}
}

// TestInjectedStallRetrySucceeds: the stall only fires for the armed
// system name, so after disarming mid-flight the retry gets a decisive
// verdict.  This exercises the full supervise loop end to end.
func TestInjectedStallRetrySucceeds(t *testing.T) {
	disarm := engine.InjectFault("stallvictim", engine.FaultStall)
	armed := true
	defer func() {
		if armed {
			disarm()
		}
	}()

	s := newTestService(t, Config{
		Workers:      2,
		StallTimeout: 50 * time.Millisecond,
		MaxRetries:   1,
		RetryBackoff: 50 * time.Millisecond,
	})
	st, err := s.Submit(Request{Source: stallModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// disarm while the first attempt is stalling; the retry runs clean
	time.Sleep(20 * time.Millisecond)
	disarm()
	armed = false
	st, err = s.Wait(st.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Verdict != "safe" {
		t.Fatalf("verdict = %s (%s), attempts = %d", st.Verdict, st.Note, st.Attempts)
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
}

// TestCorruptedCertificateIsRejected proves the certification gate: a
// decisive result whose certificate fails independent re-checking is
// demoted to Unknown with a loud note and never cached; after the fault
// is disarmed a fresh submission gets the honest, certified verdict.
func TestCorruptedCertificateIsRejected(t *testing.T) {
	disarm := engine.InjectFault("badcertvictim", engine.FaultBadCert)
	defer disarm()

	s := newTestService(t, Config{Workers: 2})
	st, err := s.Submit(Request{Source: badCertModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = s.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Verdict != "unknown" || !strings.Contains(st.Note, "CERTIFICATION FAILED") {
		t.Fatalf("verdict = %s, note = %q", st.Verdict, st.Note)
	}
	if st.Certified {
		t.Error("demoted result marked certified")
	}
	if got := s.Metrics().CertFailed(); got != 1 {
		t.Errorf("cert_failed metric = %d", got)
	}

	// the wrong answer must not have been cached
	disarm()
	st2, err := s.Submit(Request{Source: badCertModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2, err = s.Wait(st2.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st2.CacheHit {
		t.Error("demoted result was served from cache")
	}
	if st2.Verdict != "safe" || !st2.Certified {
		t.Fatalf("verdict = %s, certified = %v (%s)", st2.Verdict, st2.Certified, st2.Note)
	}
}

// TestCertifiedResultsByDefault: decisive verdicts are certified unless
// SkipCertify is set, and certified results land in the cache.
func TestCertifiedResultsByDefault(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	for _, req := range []Request{
		{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second},
		{Source: unsafeModel, Engine: "bmc", Timeout: 30 * time.Second},
	} {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		st, err = s.Wait(st.ID, 30*time.Second)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		if st.Verdict == "unknown" {
			t.Fatalf("%s: verdict = unknown (%s)", req.Engine, st.Note)
		}
		if !st.Certified {
			t.Errorf("%s: decisive verdict not certified", req.Engine)
		}
	}
	if got := s.Metrics().Certified(); got != 2 {
		t.Errorf("certified metric = %d", got)
	}
	if got := s.Metrics().CacheFills(); got != 2 {
		t.Errorf("cache fills = %d", got)
	}
}

// TestSkipCertify: the opt-out leaves results unverified but still served.
func TestSkipCertify(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, SkipCertify: true})
	st, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = s.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.Verdict != "safe" {
		t.Fatalf("verdict = %s (%s)", st.Verdict, st.Note)
	}
	if st.Certified {
		t.Error("SkipCertify result marked certified")
	}
	if got := s.Metrics().Certified(); got != 0 {
		t.Errorf("certified metric = %d", got)
	}
}

// TestShutdownDrainShedsQueuedUnderLoad is the graceful-SIGTERM
// contract under load: when the drain grace expires, every still-queued
// job is finalized as shed (a terminal status the client can observe,
// never a silent drop), the in-flight job aborts cooperatively, and no
// service goroutine outlives Shutdown.
func TestShutdownDrainShedsQueuedUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 1})
	occupier, err := s.Submit(Request{Source: hardModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("occupier submit: %v", err)
	}
	// distinct Eps per job: each needs its own queue slot, not a
	// coalesced ride on the occupier
	var queued []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(Request{Source: hardModel, Engine: "ic3", Timeout: 30 * time.Second, Eps: 1e-5 + float64(i+1)*1e-7})
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		queued = append(queued, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded (grace must expire)", err)
	}

	for _, id := range queued {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State != "shed" {
			t.Errorf("queued job %s drained as %s, want shed", id, st.State)
		}
		if st.Verdict != "unknown" || !strings.Contains(st.Note, "shutting down") {
			t.Errorf("job %s: verdict = %s, note = %q", id, st.Verdict, st.Note)
		}
	}
	st, err := s.Job(occupier.ID)
	if err != nil {
		t.Fatalf("occupier: %v", err)
	}
	if st.State != "cancelled" && st.State != "done" {
		t.Errorf("in-flight job state = %s, want cancelled or done", st.State)
	}
	if got := s.Metrics().ShedDrain(); got != 3 {
		t.Errorf("shed_drain = %d, want 3", got)
	}
	if _, err := s.Submit(Request{Source: safeModel, Timeout: time.Second}); err != ErrClosed {
		t.Errorf("submit after shutdown: err = %v, want ErrClosed", err)
	}

	// Shutdown returned with the workers exited; everything the service
	// started must be gone (watchdogs, workers, the shutdown waiter).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceDeadlineShed covers dequeue-time shedding: a job whose
// budget was eaten by queueing is finalized as shed, never run.
func TestServiceDeadlineShed(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})

	occupier, err := s.Submit(Request{Source: hardModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("occupier submit: %v", err)
	}
	victim, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("victim submit: %v", err)
	}

	// let the victim's whole budget elapse in the queue, then free the
	// worker so it dequeues the victim
	time.Sleep(120 * time.Millisecond)
	if err := s.Cancel(occupier.ID); err != nil {
		t.Fatalf("cancel occupier: %v", err)
	}

	st, err := s.Wait(victim.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("wait victim: %v", err)
	}
	if st.State != "shed" {
		t.Fatalf("victim state = %s, want shed (%s)", st.State, st.Note)
	}
	if st.Verdict != "unknown" || !strings.Contains(st.Note, "budget spent queued") {
		t.Errorf("verdict = %s, note = %q", st.Verdict, st.Note)
	}
	if got := s.Metrics().ShedDeadline(); got != 1 {
		t.Errorf("shed_deadline = %d", got)
	}
	// shed is terminal: cancelling it is a conflict, like done
	if err := s.Cancel(victim.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("cancel shed job: err = %v, want ErrFinished", err)
	}
}

// TestRobustnessMetricsExposition: the supervision and shedding counters
// appear in the /metrics text exposition.
func TestRobustnessMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	text := s.Metrics().String()
	for _, name := range []string{
		"icpserve_jobs_panics_total",
		"icpserve_jobs_stalled_total",
		"icpserve_jobs_retried_total",
		"icpserve_jobs_degraded_total",
		"icpserve_results_certified_total",
		"icpserve_results_cert_failed_total",
	} {
		if !strings.Contains(text, name+" 0") {
			t.Errorf("metric %s missing from exposition:\n%s", name, text)
		}
	}
}

// TestOverloadMetricsExposition: every overload counter appears in the
// deterministic /metrics text.
func TestOverloadMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	text := s.Metrics().String()
	for _, name := range []string{
		"icpserve_jobs_busy_total 0",
		"icpserve_jobs_rejected_total 0",
		"icpserve_jobs_shed_total 0",
		`icpserve_jobs_shed_total{reason="deadline"} 0`,
		`icpserve_jobs_shed_total{reason="drain"} 0`,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %q missing from exposition:\n%s", name, text)
		}
	}
}
