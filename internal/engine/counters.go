package engine

import (
	"fmt"
	"regexp"
	"strings"
)

// Counter declares one engine work counter, reported per engine by Table
// II, BENCH JSON, icpserve's /metrics and benchdiff.
type Counter struct {
	Key  string // Result.Stats key; Name gives its snake_case spelling
	Help string
	Gate float64 // benchdiff's allowed relative growth; 0 = tracked, never gated
}

// Counters is the one ordered declaration of the reported work counters:
// adding a counter is one row here for a Stats key an engine emits.
var Counters = [...]Counter{
	{"queries", "solver queries", 0.10},
	{"infQueries", "F_∞ self-inductiveness probes", 0},
	{"pushAttempts", "clause-push consecution queries attempted", 0},
	{"pushSkippedTriggered", "push attempts skipped as dormant by triggered pushing", 0},
	{"solverRebuilds", "frame-solver slack rebuilds (activation-var GC)", 0},
	{"ctgBlocked", "counterexamples-to-generalization blocked", 0},
	{"frames", "IC3 frames open when the run ended", 0},
	{"obligations", "IC3 proof obligations popped from the queue", 0},
	{"prefixKeptLevels", "assumption-prefix trail levels kept across Solve calls", 0},
	{"trailEventsSaved", "trail events not redone thanks to prefix retention", 0},
	{"consecCacheHits", "consecution queries served from the UNSAT memo", 0},
	{"consecCacheMisses", "consecution queries that went to a solver", 0},
	{"tnfOpsPruned", "TNF ops removed by compile-time simplification", 0},
	{"watchVisits", "watch-list entries inspected during propagation by the main query solver", 0},
	{"revisions", "HC4-revise calls of the main query solver (constraints taken off the contraction queue)", 0},
	{"infRevisions", "HC4-revise calls of the F_∞ probe solver", 0},
	{"infWatchVisits", "watch-list entries inspected during propagation by the F_∞ probe solver", 0},
	{"infDecisions", "branching decisions of the F_∞ probe solver", 0},
	{"infAccepted", "F_∞ probes ended early at an exact counter-point", 0},
	{"traceExits", "base queries of bmc, k-induction and IC3's counterexample search ended early at a proven counterexample trace", 0},
	{"ctiExits", "k-induction step queries ended early at a proven counterexample to induction", 0},
}

// Counts holds one value per row of Counters; its length follows the table.
type Counts [len(Counters)]int64

// Add sums a run's Result.Stats into c.
func (c *Counts) Add(stats map[string]int64) {
	for i, ctr := range Counters {
		c[i] += stats[ctr.Key]
	}
}

// CounterIndex returns the row of key.  It panics on an unknown key,
// which would otherwise read as a silent zero.
func CounterIndex(key string) int {
	for i, ctr := range Counters {
		if ctr.Key == key {
			return i
		}
	}
	panic(fmt.Sprintf("engine: unknown counter %q", key))
}

var upper = regexp.MustCompile(`[A-Z]`)

// Name is the spelling in BENCH JSON and /metrics: an underscore before
// each upper-case letter, then lower case (pushSkippedTriggered →
// push_skipped_triggered).
func (c Counter) Name() string {
	return strings.ToLower(upper.ReplaceAllString(c.Key, "_$0"))
}
