package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/runner"
)

// supervision is the per-job outcome record of runSupervised.
type supervision struct {
	attempts   int
	engineUsed string
	certified  bool
	reused     string // reuse-match description, "" for cold runs
}

// runSupervised executes a job under the full robustness envelope:
//
//   - every attempt runs under engine.Guard, so a panicking engine costs
//     one verdict, not one worker;
//   - a watchdog samples the engine's progress heartbeat and kills an
//     attempt whose heartbeat stalls past Config.StallTimeout (through
//     the budget's done channel, like a cancellation);
//   - panicked and stalled attempts are retried up to Config.MaxRetries
//     times with exponential backoff, degrading the engine choice per
//     the degrade table (ic3 -> portfolio -> bmc);
//   - decisive results are independently re-checked (certificate
//     obligations for Safe, trace replay for Unsafe) and demoted to
//     Unknown when the check fails, so a wrong answer is never cached
//     or served.
//
// Called without mu; only reads the job fields fixed at submission.
func (s *Service) runSupervised(jb *job) (engine.Result, supervision) {
	sup := supervision{engineUsed: jb.req.Engine}
	hints := s.lookupSeed(jb)
	sup.reused = hints.desc
	backoff := s.cfg.RetryBackoff
	var res engine.Result
	for {
		sup.attempts++
		res = s.runAttempt(jb, sup.engineUsed, hints)
		panicked := engine.Panicked(res)
		stalled := res.Stats != nil && res.Stats["stalled"] > 0
		switch {
		case panicked:
			s.metrics.incPanics()
			s.logf("job %s: attempt %d (%s) panicked: %s", jb.id, sup.attempts, sup.engineUsed, res.Note)
		case stalled:
			s.metrics.incStalled()
			s.logf("job %s: attempt %d (%s) %s", jb.id, sup.attempts, sup.engineUsed, res.Note)
		}
		if !(panicked || stalled) || sup.attempts > s.cfg.MaxRetries || s.jobCancelled(jb) {
			break
		}
		s.metrics.incRetried()
		if next, ok := degrade[sup.engineUsed]; ok {
			s.metrics.incDegraded()
			s.logf("job %s: degrading engine %s -> %s", jb.id, sup.engineUsed, next)
			sup.engineUsed = next
		}
		select {
		case <-time.After(backoff):
		case <-jb.cancel:
			return res, sup
		}
		backoff *= 2
	}

	if !s.cfg.SkipCertify && res.Verdict != engine.Unknown && !s.jobCancelled(jb) {
		sup.certified = s.certifyResult(jb, &res)
	}
	if !s.jobCancelled(jb) {
		s.metrics.recordReuse(sup.reused != "", res)
		s.metrics.recordWorkProfile(res)
		if sup.certified || s.cfg.SkipCertify {
			s.storeCertificate(jb, sup.engineUsed, res)
		}
	}
	return res, sup
}

// runAttempt runs one guarded, watchdog-supervised engine attempt.  A
// stalled attempt comes back as Unknown with Stats["stalled"] = 1.
func (s *Service) runAttempt(jb *job, engineName string, hints seedHints) engine.Result {
	req := jb.req
	prog := &engine.Progress{}

	// The watchdog owns the stalled channel: closing it expires the
	// attempt's budget exactly like a cancellation, so the kill reuses
	// the engines' cooperative-abort path and needs no hard preemption.
	stalled := make(chan struct{})
	var stallFlag atomic.Bool
	watchStop := make(chan struct{})
	watchDone := make(chan struct{})
	if s.cfg.StallTimeout > 0 {
		go func() {
			defer close(watchDone)
			// the watchdog itself runs guarded: supervision machinery must
			// never be the thing that takes the process down
			engine.GuardGo(jb.id+" watchdog", s.cfg.Logf, func() {
				s.watchProgress(prog, jb.cancel, watchStop, func() {
					stallFlag.Store(true)
					close(stalled)
				})
			})
		}()
	} else {
		close(watchDone)
	}

	// The budget is anchored to the job's end-to-end deadline: time spent
	// queued (and in earlier attempts) is already gone.  This is what
	// makes dequeue-time shedding sound — a job past its deadline has no
	// budget left by construction, it does not get a fresh one per attempt.
	timeout := req.Timeout
	if !jb.deadline.IsZero() {
		if rem := time.Until(jb.deadline); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		timeout = time.Millisecond // past-deadline attempt: expire immediately
	}
	// abort merges the cancel and stall signals into the one done channel
	// the budget watches.  The merge goroutine is released when the
	// attempt returns — chaining WithDone(cancel).WithDone(stalled) would
	// park a goroutine on two channels that never fire for the (normal)
	// jobs that are neither cancelled nor stalled, leaking one goroutine
	// per attempt.
	abort := make(chan struct{})
	attemptDone := make(chan struct{})
	go func() {
		engine.GuardGo(jb.id+" abort-merge", s.cfg.Logf, func() {
			select {
			case <-jb.cancel:
				close(abort)
			case <-stalled:
				close(abort)
			case <-attemptDone:
			}
		})
	}()
	budget := engine.Budget{Timeout: timeout}.WithDone(abort).Start()
	res := engine.Guard(jb.id, s.cfg.Logf, func() engine.Result {
		engine.FireFault(jb.sys.Name, budget)
		return runner.Check(jb.sys, runner.Spec{
			Engine: engineName, Eps: req.Eps, MaxDepth: req.MaxDepth, MaxK: req.MaxK,
			Generalize: req.Generalize, Budget: budget, Progress: prog,
			SeedClauses: hints.invariant, SeedK: hints.k,
		})
	})
	close(watchStop)
	<-watchDone
	close(attemptDone)

	// A decisive verdict that raced the watchdog still stands: the engine
	// finished its proof or counterexample before observing the kill.
	if stallFlag.Load() && res.Verdict == engine.Unknown {
		res.Note = fmt.Sprintf("stalled: no engine progress for %v", s.cfg.StallTimeout)
		if res.Stats == nil {
			res.Stats = map[string]int64{}
		}
		res.Stats["stalled"] = 1
	}
	return res
}

// watchProgress samples prog until stop/cancel closes or the heartbeat
// goes quiet for Config.StallTimeout, in which case onStall fires once.
func (s *Service) watchProgress(prog *engine.Progress, cancel, stop <-chan struct{}, onStall func()) {
	poll := s.cfg.StallTimeout / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	if poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	last := prog.Ticks()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-cancel:
			return
		case <-ticker.C:
			if t := prog.Ticks(); t != last {
				last = t
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= s.cfg.StallTimeout {
				onStall()
				return
			}
		}
	}
}

// certifyResult independently re-checks a decisive result through
// runner.Certify, demoting it to Unknown on failure, and records the
// outcome.  Returns whether the check passed.  The check has its own
// budget, so a slow checker degrades to "uncertified" rather than
// wedging the worker.
func (s *Service) certifyResult(jb *job, res *engine.Result) bool {
	verdict := res.Verdict
	err := runner.Certify(jb.sys, res, certify.Options{
		Eps:    jb.req.Eps,
		Budget: engine.Budget{Timeout: jb.req.Timeout}.WithDone(jb.cancel),
	}, s.cfg.Logf)
	if err == nil {
		s.metrics.incCertified()
		return true
	}
	s.metrics.incCertFailed()
	s.logf("job %s: CERTIFICATION FAILED, demoting %s to unknown: %v", jb.id, verdict, err)
	return false
}

// jobCancelled reports whether the job's cancel channel has fired.
func (s *Service) jobCancelled(jb *job) bool {
	select {
	case <-jb.cancel:
		return true
	default:
		return false
	}
}
