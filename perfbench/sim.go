package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"continustreaming"
	"continustreaming/internal/churn"
	"continustreaming/internal/core"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// simWorkload is a simulator workload: a named public scenario at a fixed
// population and worker count, run as worlds independent worlds (each
// seeded from the workload seed) of rounds scheduling periods. The work
// is fixed, not timed: a world's trajectory is deterministic, so running
// a fixed set of rounds keeps two versions of the program measuring the
// same work.
type simWorkload struct {
	scenario func(n int) continustreaming.Config
	nodes    int
	worlds   int
	rounds   int
	prefetch bool // the system pre-fetches, so prefetch overhead is > 0
}

// simWorkers is the simulator's worker count in every sim workload. It
// is part of the workload definition, never read from the host.
const simWorkers = 2

// checkRounds is the length of the prefix re-runs that check results do
// not depend on tracing or on which entry point built the world.
const checkRounds = 12

// minSetups is how many set-up times a run takes the median of; worlds
// built only to time their set-up make up the count.
const minSetups = 5

// minSteadyRounds is how many rounds after playback opens a run must
// time, so that at least ten samples lie beyond sim.round_ms_p90.
const minSteadyRounds = 100

// phases are the simulator's round phases in Step order, as PhaseProbe
// names them.
var phases = [...]string{"begin", "push", "exchange", "predict", "prefetch", "schedule", "serve", "apply", "playback", "maintenance", "churn", "dhtrepair"}

func phaseIndex(name string) int {
	for i, p := range phases {
		if p == name {
			return i
		}
	}
	return -1
}

// configs returns the workload's public configuration and the core
// configuration continustreaming.RunContext derives from it. The prefix
// check re-runs the public entry point and compares, so a drift between
// this mapping and the library's fails the run.
func (sw simWorkload) configs(seed uint64) (continustreaming.Config, core.Config) {
	pub := sw.scenario(sw.nodes)
	pub.Seed = seed
	pub.Workers = simWorkers
	cfg := core.DefaultConfig(pub.Nodes)
	switch pub.System {
	case continustreaming.CoolStreaming:
		cfg.Profile = core.ProfileCoolStreaming()
	case continustreaming.ContinuStreamingNoPrefetch:
		cfg.Profile = core.ProfileSchedulingOnly()
	default:
		cfg.Profile = core.ProfileContinuStreaming()
	}
	cfg.Seed = seed
	cfg.Workers = simWorkers
	if pub.Dynamic {
		cfg.Churn = churn.DefaultConfig()
	}
	return pub, cfg
}

// phaseCost is what one phase of one round cost.
type phaseCost struct {
	wall, cpu time.Duration
	allocs    uint64
}

// phaseProbe is the PhaseProbe the benchmark installs. It always checks
// that every round reports each of the twelve phases exactly once and
// nothing else. While timing is on it charges wall time, process CPU and
// heap allocations to the phase in progress and records its span under
// the current round span.
type phaseProbe struct {
	timing     bool
	tr         *tracer
	roundSpan  int
	firstBegin time.Time

	seen  [len(phases)]bool
	nseen int
	cur   int
	costs [len(phases)]phaseCost

	start   time.Time
	cpu     time.Duration
	mallocs uint64
	mem     runtime.MemStats

	rounds int
	errs   []string
}

func newPhaseProbe(tr *tracer) *phaseProbe { return &phaseProbe{tr: tr, cur: -1} }

func (p *phaseProbe) fail(format string, args ...any) {
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf("round %d: ", p.rounds)+fmt.Sprintf(format, args...))
	}
}

func (p *phaseProbe) probe(name string) {
	if p.firstBegin.IsZero() {
		p.firstBegin = time.Now()
	}
	if p.timing {
		now, cpu := time.Now(), cpuTime()
		runtime.ReadMemStats(&p.mem)
		if p.cur >= 0 {
			p.costs[p.cur] = phaseCost{wall: now.Sub(p.start), cpu: cpu - p.cpu, allocs: p.mem.Mallocs - p.mallocs}
			p.tr.record(phases[p.cur], p.roundSpan, p.start, now)
		}
	}
	p.cur = -1
	if name == "" {
		if p.nseen != len(phases) {
			var missing []string
			for i, ok := range p.seen {
				if !ok {
					missing = append(missing, phases[i])
				}
			}
			p.fail("phases missing: %s", strings.Join(missing, ","))
		}
		p.seen, p.nseen = [len(phases)]bool{}, 0
		p.rounds++
		return
	}
	i := phaseIndex(name)
	switch {
	case i < 0:
		p.fail("unknown phase %q", name)
		return
	case p.seen[i]:
		p.fail("phase %q reported twice", name)
	default:
		p.seen[i] = true
		p.nseen++
	}
	p.cur = i
	if p.timing {
		p.mallocs = p.mem.Mallocs
		p.cpu = cpuTime()
		p.start = time.Now()
	}
}

// roundRecord is what the driver saw of one round.
type roundRecord struct {
	wall, cpu time.Duration
	traced    bool
	phases    [len(phases)]phaseCost
	// Go runtime counters at the end of the round (trace mode only).
	numGC     uint32
	pauseNs   uint64
	heapAlloc uint64
}

// simRun is one world stepped round by round.
type simRun struct {
	setup   time.Duration
	rounds  []roundRecord
	samples []metrics.RoundSample
}

// runWorld builds a world from cfg and steps it for the given number of
// rounds. traceEvery > 0 times the phases of every traceEvery-th round
// through probe; goStats samples the Go runtime after every round.
func runWorld(cfg core.Config, probe *phaseProbe, tr *tracer, parent, rounds, traceEvery int, goStats bool) (simRun, error) {
	if probe != nil {
		cfg.PhaseProbe = probe.probe
	}
	setupSpan := tr.open("setup", parent)
	t0 := time.Now()
	world, err := core.NewWorld(cfg)
	if err != nil {
		return simRun{}, err
	}
	eng := sim.NewEngine(world, cfg.Tau)
	run := simRun{setup: time.Since(t0)}
	tr.close(setupSpan)
	var mem runtime.MemStats
	for r := 0; r < rounds; r++ {
		rec := roundRecord{traced: traceEvery > 0 && r%traceEvery == 0}
		if probe != nil {
			probe.timing = rec.traced
			probe.roundSpan = 0
			if rec.traced {
				probe.roundSpan = tr.open("round", parent)
			}
		}
		cpu, start := cpuTime(), time.Now()
		eng.Run(1)
		rec.wall, rec.cpu = time.Since(start), cpuTime()-cpu
		if rec.traced {
			tr.close(probe.roundSpan)
			rec.phases = probe.costs
		}
		if goStats {
			runtime.ReadMemStats(&mem)
			rec.numGC, rec.pauseNs, rec.heapAlloc = mem.NumGC, mem.PauseTotalNs, mem.HeapAlloc
		}
		run.rounds = append(run.rounds, rec)
	}
	run.samples = world.Collector().Samples()
	return run, nil
}

// sampleHash fingerprints per-round samples the way cmd/benchreport does.
func sampleHash(samples []metrics.RoundSample) string {
	h := fnv.New64a()
	for _, s := range samples {
		fmt.Fprintf(h, "%+v\n", s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stableMean is the final-quarter mean of f over samples, as
// continustreaming.Result's Stable* accessors compute it.
func stableMean(samples []metrics.RoundSample, f func(metrics.RoundSample) float64) float64 {
	n := max(len(samples)/4, 1)
	t := 0.0
	for _, s := range samples[len(samples)-n:] {
		t += f(s)
	}
	return t / float64(n)
}

func finiteIn(v, lo, hi float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= lo && v <= hi
}

// runSim drives one simulator workload: its worlds (untraced, or traced
// on every other round), then two prefix re-runs of the first world that
// check its results — one through core with the opposite tracing, one
// through the public continustreaming.Run.
func runSim(e *env, sw simWorkload) *result {
	res := &result{}
	e.record.Workers = simWorkers
	runSpan := e.tr.open("run", 0)
	defer e.tr.close(runSpan)

	traceEvery := 0
	if e.trace {
		traceEvery = 2
	}
	var runs []simRun
	var probes []*phaseProbe
	var rss []float64
	for w := 0; w < sw.worlds; w++ {
		_, cfg := sw.configs(deriveSeed(e.seed, 0x51a+uint64(w)))
		var probe *phaseProbe
		if e.trace {
			probe = newPhaseProbe(e.tr)
			probes = append(probes, probe)
		}
		span := e.tr.open("world", runSpan)
		var run simRun
		var err error
		rss = append(rss, peakRSS(func() { run, err = runWorld(cfg, probe, e.tr, span, sw.rounds, traceEvery, e.trace) }))
		e.tr.close(span)
		if err != nil {
			res.check("sim.build", false, "%v", err)
			return res
		}
		res.attempted += len(run.rounds)
		res.failed += len(run.rounds) - len(run.samples)
		res.check(fmt.Sprintf("sim.world%d.rounds", w), len(run.samples) == sw.rounds,
			"%d rounds stepped, %d sampled, %d required", len(run.rounds), len(run.samples), sw.rounds)
		runs = append(runs, run)
	}
	res.check("sim.rss", median(rss) > 0, "median peak resident set %.2f MiB over %d worlds", median(rss), len(rss))

	// Prefix re-run of the first world through core with the opposite
	// tracing: tracing must not perturb results, and a repeated run must
	// reproduce them.
	runtime.GC()
	pub, cfg := sw.configs(deriveSeed(e.seed, 0x51a))
	var checkProbe *phaseProbe
	checkEvery := 0
	if !e.trace {
		checkProbe, checkEvery = newPhaseProbe(e.tr), 1
		probes = append(probes, checkProbe)
	}
	checkSpan := e.tr.open("check.core", runSpan)
	again, err := runWorld(cfg, checkProbe, e.tr, checkSpan, checkRounds, checkEvery, false)
	e.tr.close(checkSpan)
	if err != nil {
		res.check("sim.rerun", false, "%v", err)
		return res
	}
	res.attempted += len(again.rounds)
	prefix := runs[0].samples[:min(checkRounds, len(runs[0].samples))]
	h1, h2 := sampleHash(prefix), sampleHash(again.samples)
	res.check("sim.hash_traced_vs_untraced", h1 == h2, "world %s, re-run %s over %d rounds", h1, h2, len(prefix))

	// Prefix re-run through the public entry point; its set-up time runs
	// from the call to the first begin probe.
	runtime.GC()
	pubProbe := newPhaseProbe(nil)
	probes = append(probes, pubProbe)
	pub.PhaseProbe = pubProbe.probe
	pubSpan := e.tr.open("check.public", runSpan)
	t0 := time.Now()
	pres, err := continustreaming.Run(pub, checkRounds)
	e.tr.close(pubSpan)
	if err != nil {
		res.check("sim.public_run", false, "%v", err)
		return res
	}
	res.attempted += pres.Continuity.Len()
	same := pres.Continuity.Len() == len(prefix)
	for i := 0; same && i < len(prefix); i++ {
		s := prefix[i]
		same = pres.Continuity.Values[i] == s.Continuity() &&
			pres.ContinuityWarm.Values[i] == s.ContinuityWarm() &&
			pres.ControlOverhead.Values[i] == s.ControlOverhead() &&
			pres.PrefetchOverhead.Values[i] == s.PrefetchOverhead()
	}
	res.check("sim.public_api_matches", same, "continustreaming.Run series over %d rounds", len(prefix))

	setups := []float64{again.setup.Seconds(), pubProbe.firstBegin.Sub(t0).Seconds()}
	for _, run := range runs {
		setups = append(setups, run.setup.Seconds())
	}
	for len(setups) < minSetups {
		runtime.GC()
		t0 := time.Now()
		world, err := core.NewWorld(cfg)
		if err != nil {
			res.check("sim.build", false, "%v", err)
			return res
		}
		sim.NewEngine(world, cfg.Tau)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var probeErrs []string
	for _, p := range probes {
		probeErrs = append(probeErrs, p.errs...)
	}
	res.check("sim.phases", len(probeErrs) == 0, "12 phases per round; %s", strings.Join(probeErrs, "; "))

	// The §5.3 outputs: stable-phase (final-quarter) means, averaged over
	// the worlds. They are exact for a seed.
	var cont, ctrl, pref float64
	for w, run := range runs {
		c := stableMean(run.samples, metrics.RoundSample.Continuity)
		o := stableMean(run.samples, metrics.RoundSample.ControlOverhead)
		p := stableMean(run.samples, metrics.RoundSample.PrefetchOverhead)
		res.check(fmt.Sprintf("sim.world%d.outputs_in_range", w),
			finiteIn(c, 0, 1) && c > 0 && finiteIn(o, 0, 1) && o > 0 && finiteIn(p, 0, 1) && (p > 0) == sw.prefetch,
			"stable continuity %.6f, control overhead %.6f, prefetch overhead %.6f", c, o, p)
		cont += c / float64(len(runs))
		ctrl += o / float64(len(runs))
		pref += p / float64(len(runs))
	}
	nq := len(runs) * (sw.rounds / 4)

	// Timing covers the rounds after playback opens.
	delay := cfg.PlaybackDelayRounds
	steady := len(runs) * (sw.rounds - delay)
	res.check("sim.steady_rounds", steady >= minSteadyRounds, "%d rounds after playback opened, need %d", steady, minSteadyRounds)
	res.samples = steady
	if e.trace {
		res.add("sim.continuity", "ratio", cont, nq)
		res.add("sim.control_overhead", "ratio", ctrl, nq)
		res.add("sim.prefetch_overhead", "ratio", pref, nq)
		simLayers(res, runs, delay)
		return res
	}
	// A simulated round is one scheduling period τ of the stream.
	tau := float64(cfg.Tau) / float64(sim.Second)
	var walls, cpus []float64
	for _, run := range runs {
		for _, rec := range run.rounds[delay:] {
			walls = append(walls, rec.wall.Seconds())
			cpus = append(cpus, ms(rec.cpu))
		}
	}
	res.add("setup_s", "s", median(setups), len(setups))
	res.add("rtf", "ratio", median(walls)/tau, len(walls))
	res.add("cpu_ms_per_period", "ms", median(cpus), len(cpus))
	res.add("peak_rss_mb", "MB", median(rss), len(rss))
	return res
}

// simLayers reports the traced run's per-layer metrics over the rounds
// after playback opens (from round delay on) of every world: per-phase
// self time, CPU use and allocations over the traced rounds, the
// rounds' counters, and the Go runtime's GC activity. The round-time
// p90 pools traced and untraced rounds, so that ten or more samples lie
// beyond it.
func simLayers(res *result, runs []simRun, delay int) {
	var all, traced, untraced, tracedCPU, untracedCPU []float64
	var tracedRounds []roundRecord
	for _, run := range runs {
		for _, rec := range run.rounds[delay:] {
			all = append(all, ms(rec.wall))
			if rec.traced {
				traced = append(traced, ms(rec.wall))
				tracedCPU = append(tracedCPU, ms(rec.cpu))
				tracedRounds = append(tracedRounds, rec)
			} else {
				untraced = append(untraced, ms(rec.wall))
				untracedCPU = append(untracedCPU, ms(rec.cpu))
			}
		}
	}
	n := len(tracedRounds)
	phaseSum := 0.0
	negative := 0
	for _, rec := range tracedRounds {
		var self time.Duration
		for _, c := range rec.phases {
			self += c.wall
		}
		if self > rec.wall {
			negative++
		}
	}
	for i, name := range phases {
		var walls, allocs []float64
		var wall, cpu time.Duration
		for _, rec := range tracedRounds {
			c := rec.phases[i]
			walls = append(walls, ms(c.wall))
			allocs = append(allocs, float64(c.allocs))
			wall += c.wall
			cpu += c.cpu
		}
		m := median(walls)
		phaseSum += m
		res.add("sim."+name+".ms", "ms", m, n)
		res.add("sim."+name+".cpu_per_wall", "ratio", ratio(float64(cpu), float64(wall)), n)
		res.add("sim."+name+".allocs", "count/period", median(allocs), n)
	}
	roundP50 := median(traced)
	spine := roundP50 - phaseSum
	res.add("sim.round.ms", "ms", roundP50, n)
	res.add("sim.spine.ms", "ms", spine, n)
	res.check("sim.phases_add_up", negative == 0 && n > 0,
		"round p50 %.3f ms = phases %.3f ms + spine %.3f ms; %d of %d rounds with phases longer than the round",
		roundP50, phaseSum, spine, negative, n)
	res.add("sim.round_ms_p90", "ms", quantile(all, 0.9), len(all))
	res.add("trace.round_ms_p50_overhead", "ms", roundP50-median(untraced), min(n, len(untraced)))
	res.add("trace.cpu_ms_per_period_overhead", "ms", median(tracedCPU)-median(untracedCPU), min(n, len(untraced)))

	// The rounds' counters: exact for a seed.
	var t metrics.RoundSample
	var gc, pauseNs uint64
	var heap []float64
	k := 0
	for _, run := range runs {
		for _, s := range run.samples[delay:] {
			k++
			t.Requests += s.Requests
			t.Dropped += s.Dropped
			t.PushDeliveries += s.PushDeliveries
			t.PushDuplicates += s.PushDuplicates
			t.QueueServed += s.QueueServed
			t.QueueEvictedDeadline += s.QueueEvictedDeadline + s.QueueEvictedOverflow + s.QueueEvictedStale
			t.LookupAttempts += s.LookupAttempts
			t.LookupFound += s.LookupFound
			t.LookupNoRoute += s.LookupNoRoute
			t.LookupNoBackup += s.LookupNoBackup
			t.LookupNoRate += s.LookupNoRate
			t.SourceRescues += s.SourceRescues
			t.Overdue += s.Overdue
			t.Repeated += s.Repeated
		}
		before, end := run.rounds[delay-1], run.rounds[len(run.rounds)-1]
		gc += uint64(end.numGC - before.numGC)
		pauseNs += end.pauseNs - before.pauseNs
		for _, rec := range run.rounds[delay:] {
			heap = append(heap, float64(rec.heapAlloc)/(1<<20))
		}
	}
	per := func(v int64) float64 { return ratio(float64(v), float64(k)) }
	res.add("scheduler.requests", "count/period", per(t.Requests), k)
	res.add("protocol.drop_ratio", "ratio", ratio(float64(t.Dropped), float64(t.Requests)), k)
	res.add("protocol.push_dup_ratio", "ratio", ratio(float64(t.PushDuplicates), float64(t.PushDeliveries+t.PushDuplicates)), k)
	res.add("protocol.queue_served", "count/period", per(t.QueueServed), k)
	res.add("protocol.queue_evicted", "count/period", per(t.QueueEvictedDeadline), k)
	res.add("prefetch.lookups", "count/period", per(t.LookupAttempts), k)
	att := float64(t.LookupAttempts)
	res.add("prefetch.found_ratio", "ratio", ratio(float64(t.LookupFound), att), k)
	res.add("prefetch.noroute_ratio", "ratio", ratio(float64(t.LookupNoRoute), att), k)
	res.add("prefetch.nobackup_ratio", "ratio", ratio(float64(t.LookupNoBackup), att), k)
	res.add("prefetch.norate_ratio", "ratio", ratio(float64(t.LookupNoRate), att), k)
	res.add("prefetch.source_rescues", "count/period", per(t.SourceRescues), k)
	res.add("core.overdue", "count/period", per(t.Overdue), k)
	res.add("core.repeated", "count/period", per(t.Repeated), k)
	res.add("go.gc_cycles", "count/period", float64(gc)/float64(k), k)
	res.add("go.gc_pause_ms", "ms/period", float64(pauseNs)/1e6/float64(k), k)
	res.add("go.heap_alloc_mb", "MB", median(heap), k)
}
