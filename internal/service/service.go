// Package service is the long-running verification service behind the
// icpserve binary.  It wraps the engine table of internal/runner (ic3,
// bmc, kind, portfolio) in a job queue with a fixed worker pool, a
// fill-once LRU result cache keyed by the canonical hash of (normalized
// system, engine, options), cooperative cancellation threaded through
// engine.Budget, and a metrics layer.
//
// Lifecycle of a submission:
//
//	Submit -> cache hit  -> done immediately (cache_hits)
//	       -> coalesced  -> attached to an identical in-flight job
//	       -> queued     -> picked up by a worker -> running -> done
//
// Identical concurrent submissions are single-flighted: the first one
// (the leader) occupies a worker; followers wait for its result.  If a
// leader is cancelled, the oldest follower is promoted and re-enqueued,
// so no job is lost and the cache is filled at most once per key.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/reuse"
	"icpic3/internal/runner"
	"icpic3/internal/ts"
)

// Errors returned by Submit and Cancel.
var (
	ErrClosed   = errors.New("service: shutting down")
	ErrBusy     = errors.New("service: job queue full")
	ErrNotFound = errors.New("service: no such job")
	ErrFinished = errors.New("service: job already finished")
)

// shedMargin is the deadline-shedding floor: a dequeued job whose
// remaining end-to-end budget (submit time + timeout - now) is below it
// is finalized as StateShed instead of run — it would certainly time
// out mid-solve.
const shedMargin = 10 * time.Millisecond

// degrade maps an engine to the one a retry of a panicked or stalled
// attempt falls back to.  An engine with no entry retries on itself.
var degrade = map[string]string{"ic3": "portfolio", "portfolio": "bmc"}

// Config tunes the service.  The zero value is usable.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (0 = 256); past it Submit returns ErrBusy.
	QueueDepth int
	// CacheSize bounds the result cache in entries (0 = 256).
	CacheSize int
	// DefaultTimeout is the per-job budget when a request names none
	// (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-job budget a request may ask for (0 = 5m).
	MaxTimeout time.Duration
	// StallTimeout is how long a running engine may go without ticking
	// its budget's heartbeat before the attempt expires as stalled
	// (0 = 2m, negative = no stall limit).  Distinct from the job
	// timeout: a stalled run is wedged inside one solver call, not slow.
	StallTimeout time.Duration
	// MaxRetries is how many times a panicked or stalled attempt is
	// retried, degrading the engine ic3 -> portfolio -> bmc (0 = 1,
	// negative = no retries).  Decisive and ordinary-Unknown results never
	// retry.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubled per
	// attempt (0 = 100ms).
	RetryBackoff time.Duration
	// Reuse enables the certificate-reuse subsystem (internal/reuse):
	// certified Safe results are stored, and new jobs whose system is
	// structurally close to a prior proof start seeded from it (IC3 frame
	// clauses, k-induction depth).  Verdicts never depend on it — every
	// reused clause is re-checked against the new system first.
	Reuse bool
	// CacheDir persists reuse certificates on disk so the store is warm
	// across restarts ("" = memory only).  Ignored unless Reuse is set.
	CacheDir string
	// ReuseMaxDist is the structural-diff distance threshold under which
	// a prior certificate is considered close enough to seed from
	// (0 = 0.25; see reuse.Diff).
	ReuseMaxDist float64
	// SkipCertify disables independent re-checking of decisive results.
	// By default every Safe verdict's certificate is re-verified with
	// fresh solvers and every Unsafe trace is replayed before the result
	// is cached or served; a failed check demotes the result to Unknown.
	SkipCertify bool
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 2 * time.Minute
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 1
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	return c
}

// Request describes one verification job.
type Request struct {
	// Source is the model text in the internal/ts format.
	Source string `json:"model"`
	// Engine selects a row of the runner engine table by flag name or
	// report label: ic3 | bmc | kind | portfolio ("" = portfolio).
	Engine string `json:"engine"`
	// Timeout is the per-job budget, clamped to Config.MaxTimeout
	// (0 = Config.DefaultTimeout).
	Timeout time.Duration `json:"-"`
	// Eps is the ICP splitting width (0 = engine.DefaultEps).
	Eps float64 `json:"eps,omitempty"`
	// MaxDepth bounds BMC unrolling (0 = 128).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxK bounds k-induction depth (0 = 24).
	MaxK int `json:"max_k,omitempty"`
	// Generalize is the IC3 generalization mode: none | core | core+widen,
	// or the alias widen ("" = core+widen; see runner.ParseGen).
	Generalize string `json:"generalize,omitempty"`
}

// normalize applies the request defaults so that equivalent requests
// produce identical cache keys, and validates the enumerations.
func (r Request) normalize(cfg Config) (Request, error) {
	if r.Engine == "" {
		r.Engine = "portfolio"
	}
	e, err := runner.Lookup(r.Engine)
	if err != nil {
		return r, err
	}
	r.Engine = e.Name
	gen, err := runner.ParseGen(r.Generalize)
	if err != nil {
		return r, err
	}
	r.Generalize = gen.String()
	if r.Eps <= 0 {
		r.Eps = engine.DefaultEps
	}
	if r.MaxDepth <= 0 {
		r.MaxDepth = 128
	}
	if r.MaxK <= 0 {
		r.MaxK = 24
	}
	if r.Timeout <= 0 {
		r.Timeout = cfg.DefaultTimeout
	}
	if r.Timeout > cfg.MaxTimeout {
		r.Timeout = cfg.MaxTimeout
	}
	return r, nil
}

// cacheKey is the canonical identity of a job's answer: the system hash
// plus every option that can change the verdict.  The timeout is
// deliberately excluded — only decisive results are cached and those do
// not depend on the budget that found them.
func (r Request) cacheKey(sys *ts.System) string {
	return fmt.Sprintf("%s|engine=%s|eps=%g|depth=%d|k=%d|gen=%s",
		sys.Hash(), r.Engine, r.Eps, r.MaxDepth, r.MaxK, r.Generalize)
}

// State is the lifecycle state of a job.
type State int

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateCancelled
	// StateShed is the terminal state of a job the service accepted but
	// refused to run: its remaining end-to-end budget at dequeue time was
	// below shedMargin (it would certainly time out mid-solve), or
	// it was still queued when a shutdown drain ran out of grace.
	StateShed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateShed:
		return "shed"
	}
	return "cancelled"
}

// Final reports whether s is a terminal state.
func (s State) Final() bool {
	return s == StateDone || s == StateCancelled || s == StateShed
}

// job is the internal record of one submission.  All mutable fields are
// guarded by Service.mu; done is closed exactly once when the job
// reaches a final state.
type job struct {
	id  string
	req Request
	sys *ts.System
	key string
	// groupKey is the in-flight coalescing identity: the cache key plus
	// the requested budget.  Unlike decisive cached results, a shared
	// in-flight result may be a budget-limited Unknown, so only jobs
	// with the same budget ride together.
	groupKey string

	state     State
	cancelled bool // cancellation requested (close(cancel) happened)
	result    engine.Result
	cacheHit  bool
	coalesced bool

	attempts   int    // engine attempts made (>= 1 once running)
	engineUsed string // engine of the final attempt (after degradation)
	certified  bool   // decisive result passed independent certification
	reused     string // reuse-match description when seeded from a prior proof

	submitted time.Time
	deadline  time.Time // end-to-end deadline: submitted + request budget
	started   time.Time
	finished  time.Time

	cancel chan struct{} // closed on Cancel/forced shutdown; aborts the engine
	done   chan struct{} // closed when the job reaches a final state
}

// Status is an immutable snapshot of a job, safe to serialize.
type Status struct {
	ID        string `json:"id"`
	Engine    string `json:"engine"`
	State     string `json:"state"`
	System    string `json:"system"`
	Key       string `json:"key"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Attempts counts engine attempts (> 1 after panic/stall retries);
	// EngineUsed is the engine of the final attempt, which differs from
	// Engine after degradation; Certified reports that the decisive
	// result passed independent re-checking.
	Attempts   int    `json:"attempts,omitempty"`
	EngineUsed string `json:"engine_used,omitempty"`
	Certified  bool   `json:"certified,omitempty"`
	// Reused describes the prior certificate this run was seeded from
	// ("exact" or the changed parts with their distance); empty for cold
	// runs.
	Reused    string        `json:"reused,omitempty"`
	Verdict   string        `json:"verdict,omitempty"`
	Depth     int           `json:"depth,omitempty"`
	Note      string        `json:"note,omitempty"`
	Trace     []ts.State    `json:"trace,omitempty"`
	Runtime   time.Duration `json:"-"`
	RuntimeMS int64         `json:"runtime_ms"`
}

// Service is the concurrent verification service.
type Service struct {
	cfg     Config
	cache   *resultCache
	metrics *Metrics
	store   *reuse.Store // certificate-reuse store; nil when disabled

	mu       sync.Mutex
	jobs     map[string]*job   // guarded-by: mu
	order    []string          // guarded-by: mu; submission order, for List
	inflight map[string][]*job // guarded-by: mu; cache key -> leader-first group of live jobs
	queue    chan *job
	closed   bool  // guarded-by: mu
	idSeq    int64 // guarded-by: mu

	workers sync.WaitGroup
}

// New starts a service with cfg's worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheSize),
		metrics:  newMetrics(),
		jobs:     make(map[string]*job),
		inflight: make(map[string][]*job),
		queue:    make(chan *job, cfg.QueueDepth),
	}
	if cfg.Reuse {
		store, err := reuse.Open(cfg.CacheDir, 0)
		if err != nil {
			// degrade to a memory-only cache rather than refuse to start:
			// reuse is an optimization, the persistence dir is not vital
			s.logf("service: %v, certificate cache is memory-only", err)
			store, _ = reuse.Open("", 0)
		}
		s.store = store
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the service's metrics aggregator.
func (s *Service) Metrics() *Metrics { return s.metrics }

func (s *Service) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit parses, normalizes and enqueues a request.  On a cache hit the
// returned job is already done; when an identical job is in flight the
// submission is coalesced onto it.  Submit returns an error for invalid
// requests (bad model or options), when the queue is full (ErrBusy), or
// after Shutdown began (ErrClosed).
func (s *Service) Submit(req Request) (Status, error) {
	req, err := req.normalize(s.cfg)
	if err != nil {
		s.metrics.incRejected()
		return Status{}, err
	}
	sys, err := ts.Parse(req.Source)
	if err != nil {
		s.metrics.incRejected()
		return Status{}, fmt.Errorf("parse: %w", err)
	}
	if err := sys.Validate(); err != nil {
		s.metrics.incRejected()
		return Status{}, err
	}
	key := req.cacheKey(sys)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Status{}, ErrClosed
	}
	s.idSeq++
	now := time.Now()
	jb := &job{
		id:        fmt.Sprintf("j%06d", s.idSeq),
		req:       req,
		sys:       sys,
		key:       key,
		groupKey:  key + "|t=" + req.Timeout.String(),
		submitted: now,
		deadline:  now.Add(req.Timeout),
		cancel:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.metrics.incSubmitted()

	if res, ok := s.cache.Get(key); ok {
		s.metrics.incHit()
		jb.state = StateDone
		jb.cacheHit = true
		jb.result = res
		jb.started = jb.submitted
		jb.finished = jb.submitted
		close(jb.done)
		s.registerLocked(jb)
		s.logf("job %s: cache hit (%s, %s)", jb.id, jb.req.Engine, res.Verdict)
		return s.statusLocked(jb), nil
	}
	s.metrics.incMiss()

	group := s.inflight[jb.groupKey]
	if len(group) > 0 {
		// identical job in flight: ride along instead of recomputing
		jb.coalesced = true
		s.metrics.incCoalesced()
		s.inflight[jb.groupKey] = append(group, jb)
		s.registerLocked(jb)
		s.logf("job %s: coalesced onto %s", jb.id, group[0].id)
		return s.statusLocked(jb), nil
	}
	select {
	case s.queue <- jb:
	default:
		s.metrics.incBusy()
		return Status{}, ErrBusy
	}
	s.inflight[jb.groupKey] = []*job{jb}
	s.registerLocked(jb)
	s.logf("job %s: queued (%s, %s)", jb.id, jb.sys.Name, jb.req.Engine)
	return s.statusLocked(jb), nil
}

// registerLocked records the job for Job/List; caller holds mu.
func (s *Service) registerLocked(jb *job) {
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
}

// Job returns a snapshot of the job with the given id.
func (s *Service) Job(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return s.statusLocked(jb), nil
}

// List returns snapshots of all jobs in submission order.
func (s *Service) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Wait blocks until the job reaches a final state or d elapses, then
// returns its snapshot.
func (s *Service) Wait(id string, d time.Duration) (Status, error) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	if d > 0 {
		// a stopped timer, unlike time.After, is released as soon as the
		// job finishes rather than when d expires
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-jb.done:
		case <-t.C:
		}
	} else {
		<-jb.done
	}
	return s.Job(id)
}

// Cancel requests cancellation of a job.  Queued jobs are finalized
// immediately (promoting a coalesced follower, if any, to keep the key
// alive); running jobs abort cooperatively through their budget.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch jb.state {
	case StateDone, StateCancelled, StateShed:
		return ErrFinished
	case StateRunning:
		if !jb.cancelled {
			jb.cancelled = true
			close(jb.cancel) // the worker observes it and finalizes
		}
	case StateQueued:
		if !jb.cancelled {
			jb.cancelled = true
			close(jb.cancel)
		}
		wasLeader := len(s.inflight[jb.groupKey]) > 0 && s.inflight[jb.groupKey][0] == jb
		s.removeFromGroupLocked(jb)
		s.finalizeCancelLocked(jb, "cancelled while queued")
		if wasLeader {
			s.promoteLocked(jb.groupKey)
		}
	}
	s.logf("job %s: cancel requested", jb.id)
	return nil
}

// Shutdown stops intake, drains queued and running jobs, and waits for
// the workers to exit.  If ctx expires first, every remaining job is
// cancelled cooperatively and Shutdown still waits for the workers (the
// engines abort promptly), returning ctx.Err().
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue) // all sends hold mu and check closed first
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		defer close(idle)
		engine.GuardGo("service.shutdown-wait", s.cfg.Logf, s.workers.Wait)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}

	// grace expired: shed everything still queued (a terminal status the
	// client can see, never a silent drop) and abort everything running
	s.mu.Lock()
	for _, jb := range s.jobs {
		switch jb.state {
		case StateQueued:
			if !jb.cancelled {
				jb.cancelled = true
				close(jb.cancel)
			}
			s.removeFromGroupLocked(jb)
			s.metrics.incShedDrain()
			s.finalizeShedLocked(jb, "shed: service shutting down, drain grace expired")
		case StateRunning:
			if !jb.cancelled {
				jb.cancelled = true
				close(jb.cancel)
			}
		}
	}
	s.mu.Unlock()
	<-idle
	return ctx.Err()
}

// worker runs jobs from the queue until it is closed and drained.
func (s *Service) worker() {
	defer s.workers.Done()
	for jb := range s.queue {
		s.mu.Lock()
		if jb.state != StateQueued {
			// cancelled (and finalized) while sitting in the queue
			s.mu.Unlock()
			continue
		}
		// Deadline-aware shed: a job whose end-to-end budget has already
		// been eaten by queueing would burn this worker on a certain
		// timeout — refuse to run it and promote any follower (submitted
		// later, so with more budget left).
		if time.Until(jb.deadline) < shedMargin {
			s.metrics.incShedDeadline()
			s.removeFromGroupLocked(jb)
			s.finalizeShedLocked(jb, fmt.Sprintf("shed: %v of the %v budget spent queued",
				time.Since(jb.submitted).Round(time.Millisecond), jb.req.Timeout))
			s.promoteLocked(jb.groupKey)
			s.mu.Unlock()
			continue
		}
		jb.state = StateRunning
		jb.started = time.Now()
		s.mu.Unlock()

		res, sup := s.runSupervised(jb)

		s.mu.Lock()
		req := jb.req
		jb.finished = time.Now()
		jb.attempts = sup.attempts
		jb.engineUsed = sup.engineUsed
		jb.certified = sup.certified
		jb.reused = sup.reused
		if jb.cancelled {
			jb.state = StateCancelled
			jb.result = res
			s.metrics.incCancelled()
			s.removeFromGroupLocked(jb)
			s.promoteLocked(jb.groupKey)
			s.logf("job %s: cancelled after %v", jb.id, jb.finished.Sub(jb.started))
		} else {
			jb.state = StateDone
			jb.result = res
			s.metrics.recordCompleted(sup.engineUsed, res.Verdict.String(), jb.finished.Sub(jb.started))
			if res.Verdict != engine.Unknown {
				if filled, evicted := s.cache.Put(jb.key, res); filled {
					s.metrics.recordFill(evicted)
				}
			}
			// complete the coalesced followers with the same result
			for _, f := range s.inflight[jb.groupKey] {
				if f == jb || f.state != StateQueued {
					continue
				}
				f.state = StateDone
				f.result = res
				f.started = jb.started
				f.finished = jb.finished
				close(f.done)
			}
			delete(s.inflight, jb.groupKey)
			s.logf("job %s: %s (%s, depth %d, %v)", jb.id, res.Verdict, req.Engine,
				res.Depth, jb.finished.Sub(jb.started).Round(time.Millisecond))
		}
		close(jb.done)
		s.mu.Unlock()
	}
}

// removeFromGroupLocked drops jb from its in-flight group; caller holds mu.
func (s *Service) removeFromGroupLocked(jb *job) {
	group := s.inflight[jb.groupKey]
	for i, g := range group {
		if g == jb {
			group = append(group[:i], group[i+1:]...)
			break
		}
	}
	if len(group) == 0 {
		delete(s.inflight, jb.groupKey)
	} else {
		s.inflight[jb.groupKey] = group
	}
}

// promoteLocked makes the oldest live follower of key the new leader and
// enqueues it; caller holds mu.  Followers that cannot be enqueued
// (shutdown, full queue) are finalized as cancelled so no job is lost
// silently.
func (s *Service) promoteLocked(key string) {
	for {
		group := s.inflight[key]
		if len(group) == 0 {
			delete(s.inflight, key)
			return
		}
		next := group[0]
		if next.state != StateQueued {
			s.inflight[key] = group[1:]
			continue
		}
		if !s.closed {
			select {
			case s.queue <- next:
				s.logf("job %s: promoted to leader", next.id)
				return
			default:
			}
		}
		s.inflight[key] = group[1:]
		if s.closed {
			s.metrics.incShedDrain()
			s.finalizeShedLocked(next, "shed: service shutting down during promotion")
		} else {
			s.finalizeCancelLocked(next, "queue full during promotion")
		}
	}
}

// finalizeCancelLocked moves a queued job to its final cancelled state;
// caller holds mu.
func (s *Service) finalizeCancelLocked(jb *job, note string) {
	jb.state = StateCancelled
	jb.finished = time.Now()
	jb.result = engine.Result{Verdict: engine.Unknown, Note: note}
	s.metrics.incCancelled()
	close(jb.done)
}

// finalizeShedLocked moves a queued job to its terminal shed state;
// caller holds mu.  Shed is load shedding, not cancellation: the
// service accepted the job and is refusing to run it, loudly.
func (s *Service) finalizeShedLocked(jb *job, note string) {
	jb.state = StateShed
	jb.finished = time.Now()
	jb.result = engine.Result{Verdict: engine.Unknown, Note: note}
	close(jb.done)
	s.logf("job %s: %s", jb.id, note)
}

// statusLocked snapshots a job; caller holds mu.
func (s *Service) statusLocked(jb *job) Status {
	st := Status{
		ID:        jb.id,
		Engine:    jb.req.Engine,
		State:     jb.state.String(),
		System:    jb.sys.Name,
		Key:       jb.key,
		CacheHit:  jb.cacheHit,
		Coalesced: jb.coalesced,
	}
	st.Attempts = jb.attempts
	st.EngineUsed = jb.engineUsed
	st.Certified = jb.certified
	st.Reused = jb.reused
	if jb.state.Final() {
		st.Verdict = jb.result.Verdict.String()
		st.Depth = jb.result.Depth
		st.Note = jb.result.Note
		st.Trace = jb.result.Trace
		st.Runtime = jb.result.Runtime
		if jb.cacheHit {
			st.Runtime = 0
		} else if !jb.started.IsZero() && !jb.finished.IsZero() {
			st.Runtime = jb.finished.Sub(jb.started)
		}
		st.RuntimeMS = st.Runtime.Milliseconds()
	}
	return st
}
