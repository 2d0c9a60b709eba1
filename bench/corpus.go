package main

import (
	"embed"
	"fmt"
	"io/fs"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/ts"
)

// corpus/ holds one model per distinct grid point of the seven benchmark
// families, written out once from internal/benchmarks and frozen here, so
// that an edit to the generators does not silently change what the
// benchmark measures.  Each file starts with "# expect: safe|unsafe".
//
//go:embed corpus/*.ts
var corpusFiles embed.FS

// instance is one frozen base model.
type instance struct {
	name    string // e.g. "poly-safe-3"
	family  string // e.g. "poly"
	expect  engine.Verdict
	source  string
	propVar string  // v of the "prop v <= c" line
	bound   float64 // c of the same line
}

// model is one generated input: the text the engines see and its label.
type model struct {
	name   string // the base instance it was derived from
	source string
	expect engine.Verdict
}

// propLine matches the property line every family states.  Loosening a
// safe bound keeps the model safe (the reachable states do not change) and
// tightening an unsafe one keeps it unsafe (the counterexample still
// crosses), which is how the generator varies inputs without re-deriving
// ground truth.
var propLine = regexp.MustCompile(`(?m)^prop (\w+) <= (\S+)$`)

func loadCorpus() ([]instance, error) {
	names, err := fs.Glob(corpusFiles, "corpus/*.ts")
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	out := make([]instance, 0, len(names))
	for _, path := range names {
		data, err := corpusFiles.ReadFile(path)
		if err != nil {
			return nil, err
		}
		in, err := parseInstance(strings.TrimSuffix(strings.TrimPrefix(path, "corpus/"), ".ts"), string(data))
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func parseInstance(name, src string) (instance, error) {
	in := instance{name: name, family: strings.SplitN(name, "-", 2)[0], source: src}
	switch {
	case strings.HasPrefix(src, "# expect: safe\n"):
		in.expect = engine.Safe
	case strings.HasPrefix(src, "# expect: unsafe\n"):
		in.expect = engine.Unsafe
	default:
		return instance{}, fmt.Errorf("corpus %s: missing \"# expect:\" header", name)
	}
	m := propLine.FindAllStringSubmatch(src, -1)
	if len(m) != 1 {
		return instance{}, fmt.Errorf("corpus %s: want exactly one \"prop <var> <= <const>\" line, found %d", name, len(m))
	}
	bound, err := strconv.ParseFloat(m[0][2], 64)
	if err != nil {
		return instance{}, fmt.Errorf("corpus %s: property bound: %w", name, err)
	}
	in.propVar, in.bound = m[0][1], bound
	return in, nil
}

// mutate returns the instance with its property bound scaled by factor.
func (in instance) mutate(factor float64) model {
	return in.withBound(in.bound * factor)
}

// withBound returns the instance with its property bound set to b.
func (in instance) withBound(b float64) model {
	line := fmt.Sprintf("prop %s <= %s", in.propVar, strconv.FormatFloat(b, 'g', -1, 64))
	return model{name: in.name, source: propLine.ReplaceAllLiteralString(in.source, line), expect: in.expect}
}

// perturb draws a label-preserving bound factor, ×[1, 1.05] for a safe
// instance and ×[0.95, 1] for an unsafe one, from the given stratum of
// that range.  Drawing one factor from each of several strata keeps the
// mix of cheap and expensive variants alike across seeds: an instance's
// cost can jump 15× across a 1% band of factors.
func perturb(rng *rand.Rand, expect engine.Verdict, stratum, strata int) float64 {
	f := 0.05 * (float64(stratum) + rng.Float64()) / float64(strata)
	if expect == engine.Unsafe {
		return 1 - f
	}
	return 1 + f
}

// nonlinearSet is the fixed input of ic3-nonlinear: damped-pendulum proofs
// (sin contractor, two state variables), one per grid point, that ic3-icp
// decides in 0.25-0.6 s each.  The bounds are fixed rather than perturbed
// because this family is chaotic under them: a 2% loosening can flip a run
// between half a second and a timeout, so each bound was picked from a
// scan of ×1.00-×1.50 of the grid's bound (1.2) in 2% steps.  At 1.2
// itself pendulum-safe-1 and -3 take 5-7 s, and -0 and -4 are still
// Unknown after 10 s.  Three of the six proofs fail certification at
// present.
var nonlinearSet = []struct {
	name  string
	bound float64
}{
	{"pendulum-safe-0", 1.776},
	{"pendulum-safe-1", 1.776},
	{"pendulum-safe-2", 1.224},
	{"pendulum-safe-3", 1.344},
	{"pendulum-safe-4", 1.68},
	{"pendulum-safe-5", 1.416},
}

// inputs is what one replay of a run consumes, generated from the seed
// before the clock starts.  Every replay of a run repeats the same inputs.
type inputs struct {
	ops  []model // engine workloads: verified one after another
	jobs []job   // serve: the open-loop schedule
}

// job is one scheduled submission of the serve workload.
type job struct {
	model
	at time.Duration // due time, from the start of the replay
}

// engineStrata is how many bound factors ic3-queries and unroll draw
// per base instance, one per stratum.  Three puts at least ten inputs
// beyond the 95th latency percentile.
const engineStrata = 3

// generate builds a workload's inputs.  The engines never see the seed or
// the labels: only the generated model text.
func generate(workload string, corpus []instance, seed int64) (inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var in inputs
	switch workload {
	case "ic3-queries", "unroll":
		var variants []model
		for _, c := range corpus {
			if workload == "ic3-queries" && c.family == "pendulum" {
				continue
			}
			for s := 0; s < engineStrata; s++ {
				variants = append(variants, c.mutate(perturb(rng, c.expect, s, engineStrata)))
			}
		}
		for _, j := range rng.Perm(len(variants)) {
			in.ops = append(in.ops, variants[j])
		}
	case "ic3-nonlinear":
		byName := map[string]instance{}
		for _, c := range corpus {
			byName[c.name] = c
		}
		for _, j := range rng.Perm(len(nonlinearSet)) {
			b, ok := byName[nonlinearSet[j].name]
			if !ok {
				return inputs{}, fmt.Errorf("corpus has no %s", nonlinearSet[j].name)
			}
			in.ops = append(in.ops, b.withBound(nonlinearSet[j].bound))
		}
	case "serve":
		// Every base instance arrives once, fresh, and is submitted twice
		// at that instant: the second submission coalesces onto the
		// first.  Halfway to the next arrival, the model that arrived
		// serveLag arrivals earlier is submitted again: a cache hit.  The
		// arrivals interleave the families and polarities evenly, so a
		// seed changes the bounds and how the groups interleave, but not
		// the mix, nor how the expensive models bunch up in time.
		gap := time.Second / serveRate
		var fresh []model
		for i, c := range spreadGroups(rng, corpus) {
			m := c.mutate(perturb(rng, c.expect, 0, 1))
			fresh = append(fresh, m)
			at := time.Duration(i) * gap
			in.jobs = append(in.jobs, job{m, at}, job{m, at})
			if i >= serveLag {
				in.jobs = append(in.jobs, job{fresh[i-serveLag], at + gap/2})
			}
		}
	default:
		return inputs{}, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// spreadGroups orders the corpus so that each family-and-polarity group
// (such as the expensive pendulum-safe models) is spaced evenly through
// the sequence, with a seeded offset per group.  Within a group the order
// stays the corpus order: which member comes first decides which ones the
// reuse store can seed, and so the cost of the slowest jobs.
func spreadGroups(rng *rand.Rand, corpus []instance) []instance {
	groups := map[string][]instance{}
	var keys []string
	for _, c := range corpus {
		k := c.family + "-" + c.expect.String()
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], c)
	}
	type slot struct {
		pos float64
		in  instance
	}
	var slots []slot
	for _, k := range keys {
		members, offset := groups[k], rng.Float64()
		for i, m := range members {
			slots = append(slots, slot{(float64(i) + offset) / float64(len(members)), m})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	out := make([]instance, len(slots))
	for i, s := range slots {
		out[i] = s.in
	}
	return out
}

// setUp loads the corpus, parses each base model once and generates the
// inputs, returning them with the time it took.
func setUp(cfg config) (inputs, time.Duration, error) {
	t0 := time.Now()
	gen := cfg.tracer.begin("bench.generate", 0, 0)
	defer cfg.tracer.end(gen)
	corpus, err := loadCorpus()
	if err != nil {
		return inputs{}, 0, err
	}
	for _, c := range corpus {
		sp := cfg.tracer.begin("ts.Parse", 0, gen)
		_, err := ts.Parse(c.source)
		cfg.tracer.end(sp)
		if err != nil {
			return inputs{}, 0, fmt.Errorf("corpus %s: %w", c.name, err)
		}
	}
	in, err := generate(cfg.workload, corpus, cfg.seed)
	return in, time.Since(t0), err
}
