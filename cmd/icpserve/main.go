// Command icpserve runs the verification service as an HTTP server.
//
// Usage:
//
//	icpserve [-addr :8080] [-workers N] [-queue N] [-cache N] [-timeout 30s]
//	         [-grace 10s] [-reuse] [-cache-dir DIR] [-reuse-dist 0.25]
//
// Overload behaviour (DESIGN.md §14): at most -queue jobs wait for a
// worker, and a submission past that bound gets HTTP 429 with
// Retry-After: 1.  A queued job whose remaining budget has dropped
// below 10ms when a worker picks it up is shed rather than run.
//
// With -reuse (implied by -cache-dir) every certified Safe proof is
// stored, and a resubmitted system close to a prior one starts seeded
// from its certificate: IC3 installs the still-inductive prior clauses
// at F_1 and k-induction skips step depths below the prior proof.
// Verdicts never depend on the cache; -cache-dir persists it across
// restarts.  See the icpserve_reuse_* lines of /metrics for hit rate
// and seeded-vs-cold speedup.
//
// Submit a model and wait for the verdict:
//
//	curl -s localhost:8080/v1/jobs -d '{
//	  "model": "system decay\nvar x : real [0, 10]\ninit x >= 0 and x <= 6\ntrans x'"'"' = x / 2\nprop x <= 8",
//	  "engine": "portfolio",
//	  "wait_ms": 30000
//	}'
//
// Each job runs on one goroutine of the pool that -workers sizes; a
// job has no parallelism of its own, and a body with a "workers" field
// is rejected with 400 like any other unknown field.
//
// Poll, cancel, observe:
//
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s -X POST localhost:8080/v1/jobs/j000001/cancel
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the server stops accepting work, drains in-flight
// jobs for up to -grace, cancels whatever is left, and logs the final
// metrics snapshot before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icpic3/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("cache", 256, "result cache size in entries")
		queueDepth = flag.Int("queue", 256, "maximum queued jobs")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-job budget")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on requested per-job budgets")
		grace      = flag.Duration("grace", 10*time.Second, "shutdown drain grace period")
		stall      = flag.Duration("stall-timeout", 2*time.Minute, "kill a run with no engine progress for this long (0 disables)")
		retries    = flag.Int("retries", 1, "retries of panicked/stalled jobs, degrading the engine (0 disables)")
		backoff    = flag.Duration("retry-backoff", 100*time.Millisecond, "backoff before the first retry (doubled per attempt)")
		certifyRes = flag.Bool("certify", true, "independently re-check decisive results before serving them")
		reuseOn    = flag.Bool("reuse", false, "seed new jobs from prior certified proofs of near-identical systems")
		cacheDir   = flag.String("cache-dir", "", "persist reuse certificates in this directory (implies -reuse)")
		reuseDist  = flag.Float64("reuse-dist", 0, "structural-diff distance threshold for certificate reuse (0 = 0.25)")
		verbose    = flag.Bool("v", false, "log every job state change")
	)
	flag.Parse()

	// In Config zero means "use the default", so flag-level zeros (an
	// explicit opt-out) map to the negative disable values.
	stallTimeout := *stall
	if stallTimeout == 0 {
		stallTimeout = -1
	}
	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1
	}
	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		StallTimeout:   stallTimeout,
		MaxRetries:     maxRetries,
		RetryBackoff:   *backoff,
		SkipCertify:    !*certifyRes,
		Reuse:          *reuseOn || *cacheDir != "",
		CacheDir:       *cacheDir,
		ReuseMaxDist:   *reuseDist,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	svc := service.New(cfg)

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	reuseNote := "off"
	if cfg.Reuse {
		reuseNote = "on"
		if cfg.CacheDir != "" {
			reuseNote = "on, persisted in " + cfg.CacheDir
		}
	}
	log.Printf("icpserve: listening on %s (%d workers, cache %d, reuse %s)", *addr, cfg.Workers, *cacheSize, reuseNote)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("icpserve: %v, draining (grace %v)", sig, *grace)
	case err := <-errc:
		log.Fatalf("icpserve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	srv.Shutdown(ctx)
	if err := svc.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("icpserve: shutdown: %v", err)
	} else if errors.Is(err, context.DeadlineExceeded) {
		log.Printf("icpserve: grace expired, in-flight jobs cancelled")
	}
	log.Printf("icpserve: final metrics:\n%s", svc.Metrics())
}
