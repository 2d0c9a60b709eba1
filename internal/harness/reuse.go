// Resubmission workload: measures what the certificate-reuse subsystem
// (internal/reuse) buys on CI-shaped traffic, where a job is usually a
// small edit of a model already proved.  ReuseBench proves the safe
// corpus cold, perturbs each property bound, and re-verifies every
// variant both cold and seeded from the prior certificate; the report
// carries the hit rate and the cold/seeded wall-clock ratio recorded in
// EXPERIMENTS.md.
package harness

import (
	"fmt"
	"io"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/expr"
	"icpic3/internal/reuse"
	"icpic3/internal/runner"
	"icpic3/internal/ts"
)

// MutateBound returns a deep copy of the system with the first numeric
// constant of the property scaled by factor — the canonical "resubmit
// with one edited bound" mutation.  Returns an error when the property
// has no non-zero constant to perturb.
func MutateBound(sys *ts.System, factor float64) (*ts.System, error) {
	clone, err := ts.Parse(sys.String())
	if err != nil {
		return nil, fmt.Errorf("harness: reparse %s: %w", sys.Name, err)
	}
	if !scaleFirstConst(clone.Prop, factor) {
		return nil, fmt.Errorf("harness: %s: property has no constant bound", sys.Name)
	}
	return clone, nil
}

// scaleFirstConst multiplies the first non-zero constant in the tree in
// place and reports whether one was found.
func scaleFirstConst(e *expr.Expr, factor float64) bool {
	if e == nil {
		return false
	}
	if e.Op == expr.OpConst && e.Val != 0 {
		e.Val *= factor
		return true
	}
	for _, a := range e.Args {
		if scaleFirstConst(a, factor) {
			return true
		}
	}
	return false
}

// ReusePoint is one resubmitted instance of the workload.
type ReusePoint struct {
	Instance      string
	Hit           bool   // the store offered a prior certificate
	Match         string // match description ("exact", "prop (dist ...)")
	ColdVerdict   engine.Verdict
	SeededVerdict engine.Verdict
	ColdSec       float64
	SeededSec     float64
	Seeded        int64 // clauses installed after re-checking
	Dropped       int64 // clauses dropped as stale
}

// ReuseReport aggregates the resubmission workload.
type ReuseReport struct {
	Points     []ReusePoint
	Proved     int // prior proofs available in the store
	Lookups    int
	Hits       int
	Mismatches int // seeded verdict != cold verdict (must stay 0)
	ColdSec    float64
	SeededSec  float64
	SpeedupX   float64 // ColdSec / SeededSec
}

// HitRate is the fraction of lookups answered with a usable certificate.
func (r *ReuseReport) HitRate() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Lookups)
}

// ReuseBench runs the resubmission workload over the safe, non-hard
// corpus: prove every original cold and store its certificate, then
// tighten each property bound by 2% and re-verify the variant twice —
// cold, and seeded from the closest stored certificate.  Differential
// by construction: both runs must agree on every verdict.
func ReuseBench(instances []benchmarks.Instance, perRun time.Duration) (*ReuseReport, error) {
	store, err := reuse.Open("", 0)
	if err != nil {
		return nil, err
	}
	rep := &ReuseReport{}

	type resub struct {
		name    string
		mutated *ts.System
	}
	var work []resub
	for _, in := range instances {
		if in.Expected != engine.Safe || in.Hard {
			continue
		}
		res := runner.Check(in.Sys, runner.Spec{Engine: "ic3", Budget: engine.Budget{Timeout: perRun}})
		if res.Verdict == engine.Safe && res.Certificate != nil {
			if err := store.Put(in.Sys, "ic3", res.Depth, res.Certificate); err != nil {
				return nil, err
			}
			rep.Proved++
		}
		mutated, err := MutateBound(in.Sys, 0.98)
		if err != nil {
			continue // property shape the mutation cannot edit
		}
		work = append(work, resub{name: in.Name, mutated: mutated})
	}

	for _, w := range work {
		pt := ReusePoint{Instance: w.name}
		rep.Lookups++
		var seed *engine.Certificate
		if m, ok := store.Lookup(w.mutated, 0); ok {
			// a hit is "the store offered a certificate" — a proof that
			// closed without learned clauses seeds nothing but still hits
			pt.Hit = true
			pt.Match = m.Describe()
			rep.Hits++
			seed = m.Entry.Cert
		}
		cold := runner.Check(w.mutated, runner.Spec{Engine: "ic3", Budget: engine.Budget{Timeout: perRun}})
		seeded := runner.Check(w.mutated, runner.Spec{
			Engine: "ic3", Seed: seed, Budget: engine.Budget{Timeout: perRun},
		})
		pt.ColdVerdict, pt.SeededVerdict = cold.Verdict, seeded.Verdict
		pt.ColdSec, pt.SeededSec = cold.Runtime.Seconds(), seeded.Runtime.Seconds()
		pt.Seeded = seeded.Stats["seedInstalled"]
		pt.Dropped = seeded.Stats["seedDropped"]
		if cold.Verdict != seeded.Verdict {
			rep.Mismatches++
		}
		rep.ColdSec += pt.ColdSec
		rep.SeededSec += pt.SeededSec
		rep.Points = append(rep.Points, pt)
	}
	if rep.SeededSec > 0 {
		rep.SpeedupX = rep.ColdSec / rep.SeededSec
	}
	return rep, nil
}

// WriteReuseReport renders the workload as deterministic text.
func WriteReuseReport(w io.Writer, rep *ReuseReport) {
	fmt.Fprintln(w, "Certificate reuse: resubmission workload (bound tightened 2%)")
	fmt.Fprintf(w, "%-24s %-5s %-20s %-8s %10s %10s %7s %7s\n",
		"instance", "hit", "match", "verdict", "cold", "seeded", "install", "drop")
	for _, p := range rep.Points {
		hit := "no"
		if p.Hit {
			hit = "yes"
		}
		verdict := p.SeededVerdict.String()
		if p.SeededVerdict != p.ColdVerdict {
			verdict = p.ColdVerdict.String() + "!=" + p.SeededVerdict.String()
		}
		fmt.Fprintf(w, "%-24s %-5s %-20s %-8s %9.3fs %9.3fs %7d %7d\n",
			p.Instance, hit, p.Match, verdict, p.ColdSec, p.SeededSec, p.Seeded, p.Dropped)
	}
	fmt.Fprintf(w, "proofs stored %d, hit rate %d/%d (%.0f%%), verdict mismatches %d\n",
		rep.Proved, rep.Hits, rep.Lookups, 100*rep.HitRate(), rep.Mismatches)
	fmt.Fprintf(w, "cold %.3fs vs seeded %.3fs: speedup %.2fx\n",
		rep.ColdSec, rep.SeededSec, rep.SpeedupX)
}
