package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"icpic3/internal/engine"
)

// latencyBuckets are the upper bounds of the job-latency histogram.
var latencyBuckets = [...]time.Duration{
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
	60 * time.Second,
}

// histogram is a fixed-bucket latency histogram (last bucket = +Inf).
type histogram struct {
	buckets [len(latencyBuckets) + 1]int64
	sum     time.Duration
	count   int64
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if d <= latencyBuckets[i] {
			break
		}
	}
	h.buckets[i]++
	h.sum += d
	h.count++
}

// Metrics aggregates service counters and per-engine latency histograms.
// WriteText renders them deterministically (sorted keys), so tests and
// scrapers can diff successive snapshots.
type Metrics struct {
	mu sync.Mutex

	// Every counter below is guarded-by: mu (lockguard enforces this).
	submitted   int64 // guarded-by: mu
	rejected    int64 // guarded-by: mu; bad requests (parse/validate/engine errors)
	busy        int64 // guarded-by: mu; submissions refused because the queue was full
	cancelled   int64 // guarded-by: mu
	cacheHits   int64 // guarded-by: mu
	cacheMisses int64 // guarded-by: mu
	coalesced   int64 // guarded-by: mu; submissions attached to an identical in-flight job
	cacheFills  int64 // guarded-by: mu
	evictions   int64 // guarded-by: mu

	panics     int64 // guarded-by: mu; engine attempts that panicked (recovered by Guard)
	stalled    int64 // guarded-by: mu; engine attempts expired by a stalled budget heartbeat
	retried    int64 // guarded-by: mu; retries of panicked/stalled attempts
	degraded   int64 // guarded-by: mu; retries that fell back to a different engine
	certified  int64 // guarded-by: mu; decisive results that passed independent re-checking
	certFailed int64 // guarded-by: mu; decisive results demoted to Unknown by certification

	shedDeadline int64 // guarded-by: mu; dequeued jobs shed for exhausted end-to-end budget
	shedDrain    int64 // guarded-by: mu; queued jobs shed by a shutdown drain

	counts engine.Counts // guarded-by: mu; summed engine work counters (engine.Counters)

	reuseLookups   int64   // guarded-by: mu; certificate-store lookups (reuse-capable jobs)
	reuseHits      int64   // guarded-by: mu; lookups that produced usable seed hints
	clausesSeeded  int64   // guarded-by: mu; prior-proof clauses that survived re-checking
	clausesDropped int64   // guarded-by: mu; prior-proof clauses dropped as stale/corrupt
	seededRuns     int64   // guarded-by: mu; engine runs started from a prior certificate
	seededSeconds  float64 // guarded-by: mu
	coldRuns       int64   // guarded-by: mu; engine runs with no usable prior certificate
	coldSeconds    float64 // guarded-by: mu

	completed map[string]int64      // guarded-by: mu; "engine\x00verdict" -> count
	latency   map[string]*histogram // guarded-by: mu; engine -> histogram
}

func newMetrics() *Metrics {
	return &Metrics{
		completed: make(map[string]int64),
		latency:   make(map[string]*histogram),
	}
}

func (m *Metrics) incShedDeadline() { m.mu.Lock(); m.shedDeadline++; m.mu.Unlock() }
func (m *Metrics) incShedDrain()    { m.mu.Lock(); m.shedDrain++; m.mu.Unlock() }

// Shed counter accessors (for tests and logs).
func (m *Metrics) ShedDeadline() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.shedDeadline }
func (m *Metrics) ShedDrain() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.shedDrain }

func (m *Metrics) incSubmitted() { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *Metrics) incRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *Metrics) incBusy()      { m.mu.Lock(); m.busy++; m.mu.Unlock() }
func (m *Metrics) incCancelled() { m.mu.Lock(); m.cancelled++; m.mu.Unlock() }
func (m *Metrics) incHit()       { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *Metrics) incMiss()      { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }
func (m *Metrics) incCoalesced() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }

func (m *Metrics) incReuseLookup() { m.mu.Lock(); m.reuseLookups++; m.mu.Unlock() }
func (m *Metrics) incReuseHit()    { m.mu.Lock(); m.reuseHits++; m.mu.Unlock() }

// recordReuse attributes a finished engine run to the seeded or cold
// population (the ratio of their mean runtimes is the reuse speedup)
// and accumulates the engine's clause seeding counters.
func (m *Metrics) recordReuse(seeded bool, res engine.Result) {
	m.mu.Lock()
	if seeded {
		m.seededRuns++
		m.seededSeconds += res.Runtime.Seconds()
	} else {
		m.coldRuns++
		m.coldSeconds += res.Runtime.Seconds()
	}
	if res.Stats != nil {
		m.clausesSeeded += res.Stats["seedInstalled"]
		m.clausesDropped += res.Stats["seedDropped"]
	}
	m.mu.Unlock()
}

// recordWorkProfile accumulates a finished engine run's work counters
// (engine.Counters) so operators can see, fleet-wide, where consecution
// work goes.
func (m *Metrics) recordWorkProfile(res engine.Result) {
	m.mu.Lock()
	m.counts.Add(res.Stats)
	m.mu.Unlock()
}

// Counter returns the summed value of the engine.Counters row with the
// given Stats key; it panics on a key the schema does not declare.
func (m *Metrics) Counter(key string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[engine.CounterIndex(key)]
}

// Named work-counter accessors, kept for the benchmark (bench/serve.go).
func (m *Metrics) PushAttempts() int64      { return m.Counter("pushAttempts") }
func (m *Metrics) PushSkipped() int64       { return m.Counter("pushSkippedTriggered") }
func (m *Metrics) SolverRebuilds() int64    { return m.Counter("solverRebuilds") }
func (m *Metrics) CTGBlocked() int64        { return m.Counter("ctgBlocked") }
func (m *Metrics) PrefixKeptLevels() int64  { return m.Counter("prefixKeptLevels") }
func (m *Metrics) TrailEventsSaved() int64  { return m.Counter("trailEventsSaved") }
func (m *Metrics) ConsecCacheHits() int64   { return m.Counter("consecCacheHits") }
func (m *Metrics) ConsecCacheMisses() int64 { return m.Counter("consecCacheMisses") }
func (m *Metrics) TNFOpsPruned() int64      { return m.Counter("tnfOpsPruned") }

func (m *Metrics) incPanics()     { m.mu.Lock(); m.panics++; m.mu.Unlock() }
func (m *Metrics) incStalled()    { m.mu.Lock(); m.stalled++; m.mu.Unlock() }
func (m *Metrics) incRetried()    { m.mu.Lock(); m.retried++; m.mu.Unlock() }
func (m *Metrics) incDegraded()   { m.mu.Lock(); m.degraded++; m.mu.Unlock() }
func (m *Metrics) incCertified()  { m.mu.Lock(); m.certified++; m.mu.Unlock() }
func (m *Metrics) incCertFailed() { m.mu.Lock(); m.certFailed++; m.mu.Unlock() }

// Reuse counter accessors (for tests and logs).
func (m *Metrics) ReuseLookups() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.reuseLookups }
func (m *Metrics) ReuseHits() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.reuseHits }
func (m *Metrics) ClausesSeeded() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clausesSeeded
}
func (m *Metrics) ClausesDropped() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clausesDropped
}

// ReuseSpeedup returns the ratio of mean cold runtime to mean seeded
// runtime (> 1 means seeding pays off); 0 until both populations have
// at least one run.
func (m *Metrics) ReuseSpeedup() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reuseSpeedupLocked()
}

func (m *Metrics) reuseSpeedupLocked() float64 {
	if m.seededRuns == 0 || m.coldRuns == 0 || m.seededSeconds <= 0 {
		return 0
	}
	return (m.coldSeconds / float64(m.coldRuns)) / (m.seededSeconds / float64(m.seededRuns))
}

// Robustness counter accessors (for tests and logs).
func (m *Metrics) Panics() int64     { m.mu.Lock(); defer m.mu.Unlock(); return m.panics }
func (m *Metrics) Stalled() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.stalled }
func (m *Metrics) Retried() int64    { m.mu.Lock(); defer m.mu.Unlock(); return m.retried }
func (m *Metrics) Degraded() int64   { m.mu.Lock(); defer m.mu.Unlock(); return m.degraded }
func (m *Metrics) Certified() int64  { m.mu.Lock(); defer m.mu.Unlock(); return m.certified }
func (m *Metrics) CertFailed() int64 { m.mu.Lock(); defer m.mu.Unlock(); return m.certFailed }

func (m *Metrics) recordFill(evicted bool) {
	m.mu.Lock()
	m.cacheFills++
	if evicted {
		m.evictions++
	}
	m.mu.Unlock()
}

// recordCompleted counts a finished engine run and its latency.
func (m *Metrics) recordCompleted(engineName, verdict string, d time.Duration) {
	m.mu.Lock()
	m.completed[engineName+"\x00"+verdict]++
	h := m.latency[engineName]
	if h == nil {
		h = &histogram{}
		m.latency[engineName] = h
	}
	h.observe(d)
	m.mu.Unlock()
}

// CacheHits returns the number of cache hits served (for tests/logs).
func (m *Metrics) CacheHits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits
}

// CacheFills returns the number of cache fills performed.
func (m *Metrics) CacheFills() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheFills
}

// WriteText renders all metrics as deterministic plain text, one
// `name value` pair per line in the Prometheus exposition style.
func (m *Metrics) WriteText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	var lines []string
	add := func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	add("icpserve_cache_coalesced_total %d", m.coalesced)
	add("icpserve_cache_evictions_total %d", m.evictions)
	add("icpserve_cache_fills_total %d", m.cacheFills)
	add("icpserve_cache_hits_total %d", m.cacheHits)
	add("icpserve_cache_misses_total %d", m.cacheMisses)
	add("icpserve_jobs_busy_total %d", m.busy)
	add("icpserve_jobs_cancelled_total %d", m.cancelled)
	add("icpserve_jobs_rejected_total %d", m.rejected)
	add("icpserve_jobs_submitted_total %d", m.submitted)
	add("icpserve_jobs_shed_total %d", m.shedDeadline+m.shedDrain)
	add(`icpserve_jobs_shed_total{reason="deadline"} %d`, m.shedDeadline)
	add(`icpserve_jobs_shed_total{reason="drain"} %d`, m.shedDrain)
	add("icpserve_jobs_panics_total %d", m.panics)
	add("icpserve_jobs_stalled_total %d", m.stalled)
	add("icpserve_jobs_retried_total %d", m.retried)
	add("icpserve_jobs_degraded_total %d", m.degraded)
	add("icpserve_results_certified_total %d", m.certified)
	add("icpserve_results_cert_failed_total %d", m.certFailed)
	for i, c := range engine.Counters {
		add("icpserve_engine_%s_total %d", c.Name(), m.counts[i])
	}
	add("icpserve_reuse_lookups_total %d", m.reuseLookups)
	add("icpserve_reuse_hits_total %d", m.reuseHits)
	add("icpserve_reuse_clauses_seeded_total %d", m.clausesSeeded)
	add("icpserve_reuse_clauses_dropped_total %d", m.clausesDropped)
	add("icpserve_reuse_seeded_runs_total %d", m.seededRuns)
	add("icpserve_reuse_seeded_seconds_sum %g", m.seededSeconds)
	add("icpserve_reuse_cold_runs_total %d", m.coldRuns)
	add("icpserve_reuse_cold_seconds_sum %g", m.coldSeconds)
	add("icpserve_reuse_speedup_ratio %g", m.reuseSpeedupLocked())
	for key, n := range m.completed {
		parts := strings.SplitN(key, "\x00", 2)
		add("icpserve_jobs_completed_total{engine=%q,verdict=%q} %d", parts[0], parts[1], n)
	}
	for name, h := range m.latency {
		cum := int64(0)
		for i, b := range h.buckets {
			cum += b
			le := "+Inf"
			if i < len(latencyBuckets) {
				le = fmt.Sprintf("%g", latencyBuckets[i].Seconds())
			}
			add("icpserve_job_seconds_bucket{engine=%q,le=%q} %d", name, le, cum)
		}
		add("icpserve_job_seconds_count{engine=%q} %d", name, h.count)
		add("icpserve_job_seconds_sum{engine=%q} %g", name, h.sum.Seconds())
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// String renders the metrics as text (see WriteText).
func (m *Metrics) String() string {
	var b strings.Builder
	m.WriteText(&b)
	return b.String()
}
