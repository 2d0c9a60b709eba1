package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"icpic3/internal/engine"
)

// safeModel is proved safe quickly by IC3 (the README quickstart system).
const safeModel = `
system quickstart
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2 + x^2 / 100
prop x <= 8
`

// unsafeModel is refuted quickly by BMC.
const unsafeModel = `
system intdouble
var n : int [0, 100]
init n = 1
trans n' = 2 * n
prop n <= 30
`

// hardModel cannot be decided quickly; used to keep workers busy and to
// exercise cancellation mid-flight.
const hardModel = `
system hard
var x : real [0, 1000000]
var y : real [0, 1000000]
init x >= 0 and x <= 1 and y >= 0 and y <= 1
trans x' = x + y * y / 1000 and y' = y + x * x / 1000
prop x + y <= 999999
`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestSubmitSafe(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	st, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.State != "queued" {
		t.Fatalf("state = %s, want queued", st.State)
	}
	final, err := s.Wait(st.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != "done" || final.Verdict != "safe" {
		t.Fatalf("final = %+v, want done/safe", final)
	}
}

func TestSubmitUnsafeHasTrace(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	st, err := s.Submit(Request{Source: unsafeModel, Engine: "bmc", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, _ := s.Wait(st.ID, 30*time.Second)
	if final.Verdict != "unsafe" {
		t.Fatalf("verdict = %s (%s), want unsafe", final.Verdict, final.Note)
	}
	if len(final.Trace) == 0 {
		t.Fatal("unsafe verdict without a trace")
	}
}

func TestCacheHitOnResubmission(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	first, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := s.Wait(first.ID, 30*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// whitespace/comment/name noise must still hit the cache
	noisy := "# resubmitted\n" + strings.Replace(safeModel, "system quickstart", "system renamed", 1)
	second, err := s.Submit(Request{Source: noisy, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !second.CacheHit || second.State != "done" || second.Verdict != "safe" {
		t.Fatalf("second = %+v, want instant cache hit", second)
	}
	if first.Key != second.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}
	if got := s.Metrics().CacheHits(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	// a different property must not hit the cache
	third, err := s.Submit(Request{
		Source:  strings.Replace(safeModel, "prop x <= 8", "prop x <= 9", 1),
		Engine:  "ic3",
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("submit third: %v", err)
	}
	if third.CacheHit || third.Key == first.Key {
		t.Fatalf("changed property must change the key: %+v", third)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	st, err := s.Submit(Request{Source: hardModel, Engine: "ic3", Timeout: time.Hour})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// let the worker pick it up
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := s.Job(st.ID)
		if cur.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := s.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := s.Wait(st.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != "cancelled" {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, engines are not aborting promptly", d)
	}
	if err := s.Cancel(st.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel err = %v, want ErrFinished", err)
	}
}

func TestCoalescingAndPromotion(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	// occupy the single worker
	blocker, err := s.Submit(Request{Source: hardModel, Engine: "ic3", Timeout: time.Hour})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	// leader for the quickstart key, stuck in the queue
	leader, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit leader: %v", err)
	}
	// identical submission coalesces onto the leader
	follower, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit follower: %v", err)
	}
	if !follower.Coalesced {
		t.Fatalf("follower = %+v, want coalesced", follower)
	}

	// cancelling the queued leader must promote the follower, not lose it
	if err := s.Cancel(leader.ID); err != nil {
		t.Fatalf("cancel leader: %v", err)
	}
	if st, _ := s.Job(leader.ID); st.State != "cancelled" {
		t.Fatalf("leader state = %s, want cancelled", st.State)
	}
	// free the worker so the promoted follower can run
	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	final, err := s.Wait(follower.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("wait follower: %v", err)
	}
	if final.State != "done" || final.Verdict != "safe" {
		t.Fatalf("promoted follower = %+v, want done/safe", final)
	}
	if got := s.Metrics().CacheFills(); got != 1 {
		t.Fatalf("cache fills = %d, want exactly 1", got)
	}
}

func TestRejectsBadRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	if _, err := s.Submit(Request{Source: "system broken\nvar", Engine: "ic3"}); err == nil {
		t.Error("bad model accepted")
	}
	if _, err := s.Submit(Request{Source: safeModel, Engine: "zmc"}); err == nil {
		t.Error("bad engine accepted")
	}
	if _, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Generalize: "wat"}); err == nil {
		t.Error("bad generalization accepted")
	}
	if _, err := s.Job("j999999"); !errors.Is(err, ErrNotFound) {
		t.Error("missing job did not return ErrNotFound")
	}
}

// submitDeadline bounds one Submit call in TestQueueFull.  Admission
// must answer accept, reject or shed without waiting on the queue, so a
// call that takes this long is blocked, not slow.
const submitDeadline = 5 * time.Second

// TestQueueFull pins the admission contract (DESIGN.md §14): with the
// worker busy and the queue full, Submit answers ErrBusy at once.  Each
// call runs under submitDeadline, so a Submit that blocks on the queue
// fails the test within seconds instead of hanging it.
func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	blocked := false
	t.Cleanup(func() {
		if blocked {
			return // a stuck Submit holds mu, so Shutdown would hang too
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	submit := func(req Request) error {
		errc := make(chan error, 1)
		go func() {
			_, err := s.Submit(req)
			errc <- err
		}()
		select {
		case err := <-errc:
			return err
		case <-time.After(submitDeadline):
			blocked = true
			t.Fatalf("Submit blocked for %v: admission must not wait on a full queue", submitDeadline)
			return nil
		}
	}
	if err := submit(Request{Source: hardModel, Engine: "ic3", Timeout: time.Hour}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// distinct keys so they cannot coalesce; the worker is busy, depth 1
	variant := func(i int) string {
		return strings.Replace(hardModel, "999999", fmt.Sprintf("99999%d", i), 1)
	}
	var busy bool
	for i := 0; i < 4; i++ {
		if err := submit(Request{Source: variant(i), Engine: "ic3", Timeout: time.Hour}); errors.Is(err, ErrBusy) {
			busy = true
			break
		}
	}
	if !busy {
		t.Fatal("queue never reported ErrBusy")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State != "done" || st.Verdict != "safe" {
			t.Fatalf("job %s = %+v, want drained to done/safe", id, st)
		}
	}
	if _, err := s.Submit(Request{Source: safeModel, Engine: "ic3"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown err = %v, want ErrClosed", err)
	}
}

func TestForcedShutdownCancels(t *testing.T) {
	s := New(Config{Workers: 1})
	st, err := s.Submit(Request{Source: hardModel, Engine: "ic3", Timeout: time.Hour})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("forced shutdown took %v", d)
	}
	final, _ := s.Job(st.ID)
	if final.State != "cancelled" {
		t.Fatalf("job state = %s, want cancelled after forced shutdown", final.State)
	}
}

// TestConcurrentMixedLoad is the race-focused stress test: concurrent
// submissions of safe/unsafe/hard models with mid-flight cancellations.
// Run with -race.  It asserts no lost jobs (every job reaches a final
// state), no duplicate cache fills (at most one per key), and a clean
// shutdown.
func TestConcurrentMixedLoad(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 512})
	type spec struct {
		req         Request
		cancel      bool
		cancelAfter time.Duration
	}
	rng := rand.New(rand.NewSource(1))
	var specs []spec
	for i := 0; i < 12; i++ {
		specs = append(specs,
			spec{req: Request{Source: safeModel, Engine: "ic3", Timeout: 30 * time.Second}},
			spec{req: Request{Source: unsafeModel, Engine: "bmc", Timeout: 30 * time.Second}},
			spec{req: Request{Source: hardModel, Engine: "ic3", Timeout: 400 * time.Millisecond}},
			spec{
				req:         Request{Source: hardModel, Engine: "ic3", Timeout: time.Hour},
				cancel:      true,
				cancelAfter: time.Duration(rng.Int63n(50)) * time.Millisecond,
			},
		)
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for _, sp := range specs {
		sp := sp
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.Submit(sp.req)
			if errors.Is(err, ErrBusy) {
				return // acceptable under load; not a lost job
			}
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			mu.Lock()
			ids = append(ids, st.ID)
			mu.Unlock()
			if sp.cancel {
				time.Sleep(sp.cancelAfter)
				err := s.Cancel(st.ID)
				if err != nil && !errors.Is(err, ErrFinished) {
					t.Errorf("cancel %s: %v", st.ID, err)
				}
			}
		}()
	}
	wg.Wait()

	// every submitted job must reach a final state
	for _, id := range ids {
		st, err := s.Wait(id, 90*time.Second)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		// "shed" is a legitimate terminal state here: the 400ms-budget
		// hard jobs can exhaust their end-to-end deadline while queued
		if st.State != "done" && st.State != "cancelled" && st.State != "shed" {
			t.Fatalf("job %s stuck in %s: no lost jobs allowed", id, st.State)
		}
	}

	// at most one cache fill per decisive key: safe quickstart + unsafe
	// intdouble are the only decisive keys here
	if fills := s.Metrics().CacheFills(); fills > 2 {
		t.Errorf("cache fills = %d, want <= 2 (one per decisive key)", fills)
	}
	if s.cache.Len() > 2 {
		t.Errorf("cache len = %d, want <= 2", s.cache.Len())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after load: %v", err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	put := func(k string, depth int) (bool, bool) {
		return c.Put(k, engine.Result{Verdict: engine.Safe, Depth: depth})
	}
	put("a", 1)
	if _, evicted := put("b", 1); evicted {
		t.Fatal("eviction below capacity")
	}
	c.Get("a")                               // refresh a
	if _, evicted := put("c", 1); !evicted { // evicts b
		t.Fatal("expected an eviction at capacity")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if res, ok := c.Get("a"); !ok || res.Depth != 1 {
		t.Fatal("a should have survived (recently used)")
	}
	if filled, _ := put("a", 2); filled {
		t.Fatal("Put must be fill-once")
	}
}
