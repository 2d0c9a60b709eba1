package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"icpic3/internal/service"
)

const (
	// serveRate is the open-loop arrival rate of new models; with their
	// duplicates and repeats the service sees about 32 submissions/s.
	serveRate = 12
	// serveLag is how many arrivals back a repeat reaches: long enough
	// for the first submission to have finished.
	serveLag = 30
	// serveBudget is the per-job engine budget.
	serveBudget = 10 * time.Second
	// serveCache is the result-cache size: smaller than the distinct
	// models of one replay (one per base instance), so entries get
	// evicted, but larger than the fills between a model's arrival and
	// its repeat (at most 2*serveLag), so the repeat still finds it.
	serveCache = 64
	// serveWaitCap is how long a job may take from submission before it
	// counts as stuck: the engine and certify budgets plus queueing.
	serveWaitCap = 60 * time.Second
)

// runServe replays the open-loop schedule once against a fresh in-process
// service, adding to o: each job is submitted at its due time whether or
// not earlier ones have finished, and timed from that due time, so a stall
// also delays the jobs queued behind it.  Each job gets its own waiter
// goroutine, so a slow job never delays the measurement of another.
func runServe(in inputs, cfg config, o *outcome) {
	jobs := in.jobs
	svc := service.New(service.Config{Workers: 2, Reuse: true, CacheSize: serveCache})
	status := make([]service.Status, len(jobs))
	lat := make([]time.Duration, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, j := range jobs {
		due := start.Add(j.at)
		time.Sleep(time.Until(due))
		if lag := time.Since(due); lag > o.lagMax {
			o.lagMax = lag
		}
		op := o.replays*len(jobs) + i + 1
		root := cfg.tracer.beginAt("bench.op", op, 0, due)
		sp := cfg.tracer.begin("service.Submit", op, root)
		st, err := svc.Submit(service.Request{Source: j.source, Timeout: serveBudget})
		cfg.tracer.end(sp)
		if err != nil {
			cfg.tracer.end(root)
			// a refused request misses any latency limit
			status[i] = service.Status{State: "rejected: " + err.Error()}
			lat[i] = serveWaitCap
			o.counts["service.rejected"]++
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := cfg.tracer.begin("service.Wait", op, root)
			fin, err := svc.Wait(st.ID, serveWaitCap)
			cfg.tracer.end(sp)
			cfg.tracer.end(root)
			if err != nil {
				fin.State = "lost: " + err.Error()
			}
			status[i], lat[i] = fin, time.Since(due)
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		o.errs = append(o.errs, "shutdown: "+err.Error())
	}

	for i, st := range status {
		o.attempted++
		o.observe(i, lat[i])
		if st.State != "done" {
			o.failed++
			o.errs = append(o.errs, fmt.Sprintf("%s: job %s", jobs[i].name, st.State))
			continue
		}
		switch st.Verdict {
		case "unknown":
		case jobs[i].expect.String():
			o.solved++
		default:
			o.wrong++
			o.failed++
			o.errs = append(o.errs, jobs[i].name+": wrong verdict")
		}
		switch {
		case st.CacheHit:
			o.counts["service.cache_hits"]++
		case st.Coalesced:
			o.counts["service.coalesced"]++
		default:
			o.queued = append(o.queued, lat[i]-st.Runtime)
			o.run = append(o.run, st.Runtime)
			if w, ok := strings.CutPrefix(st.Note, "decided by "); ok {
				o.counts["portfolio.won_"+strings.TrimSuffix(strings.SplitN(w, ":", 2)[0], "-icp")]++
			}
		}
	}
	m := svc.Metrics()
	o.uncertified += int(m.CertFailed())
	for name, v := range map[string]int64{
		"service.cert_failed":    m.CertFailed(),
		"reuse.hits":             m.ReuseHits(),
		"reuse.lookups":          m.ReuseLookups(),
		"reuse.clauses_seeded":   m.ClausesSeeded(),
		"reuse.clauses_dropped":  m.ClausesDropped(),
		"ic3icp.push_attempts":   m.PushAttempts(),
		"ic3icp.push_skipped":    m.PushSkipped(),
		"ic3icp.solver_rebuilds": m.SolverRebuilds(),
		"ic3icp.ctg_blocked":     m.CTGBlocked(),
		"icp.prefix_kept_levels": m.PrefixKeptLevels(),
		"icp.trail_events_saved": m.TrailEventsSaved(),
		"tnf.ops_pruned":         m.TNFOpsPruned(),
		"memo.hits":              m.ConsecCacheHits(),
		"memo.misses":            m.ConsecCacheMisses(),
	} {
		o.counts[name] += float64(v)
	}
	o.replays++
}
