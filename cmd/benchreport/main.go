// Command benchreport is the CI bench-regression gate: it measures the
// engine's steady-state step cost at the paper scale (1k nodes) and the
// scale-out scale (10k nodes), the multi-worker speedup curve at 10k,
// runs the Table 1 continuity sweep, and emits a machine-readable JSON
// report. With -baseline it compares ns/op, B/op and allocs/op against a
// committed reference and exits non-zero when any benchmark regresses
// beyond the tolerance — wall-clock or allocation creep in the hot loop
// fails the build instead of landing silently.
//
//	benchreport -out BENCH_PR2.json                      # measure + write
//	benchreport -out BENCH_PR2.json -baseline BENCH_BASELINE.json
//	benchreport -update-baseline BENCH_BASELINE.json     # refresh reference
//	benchreport -curve 1,4,8 -speedup 2.5                # workers curve
//
// The workers curve re-measures the 10k-node step at each worker count
// and stamps every point with a result fingerprint (a hash of the run's
// full per-round metrics). Fingerprints must agree across the whole
// curve on every machine — the pipeline's bit-identical-at-any-Workers
// contract, enforced on real measurements, not just unit tests. The
// speedup gate (highest worker count must beat workers=1 by -speedup×)
// engages only when the runner has at least as many CPUs as the widest
// point; a 1-CPU dev box still measures and checks identity, but cannot
// fail a parallel-scaling gate it physically cannot exercise.
//
// The committed baseline is machine-specific in absolute terms; CI runs it
// on a single runner class, and the tolerance absorbs same-class noise.
// Every report is stamped with a runner fingerprint (GOOS/GOARCH, CPU
// model, core count); when the measured fingerprint does not match the
// baseline's, the ns/op gate downgrades to warnings instead of failing —
// new runner hardware should prompt a baseline refresh, not break CI.
// Refresh the baseline (and say so in the PR) when a change is *meant* to
// shift the step cost or when the runner class changes.
//
// benchreport measures wall time by design; cmd/ packages are exempt
// wholesale from the continulint wallclock contract (see
// analysis.SimulatedPath), which bans time.Now only inside the
// simulator's deterministic loop.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"continustreaming/internal/core"
	"continustreaming/internal/dht"
	"continustreaming/internal/experiment"
	"continustreaming/internal/sim"
)

// Report is the benchreport JSON schema.
type Report struct {
	Schema    string    `json:"schema"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	CPUs      int       `json:"cpus"`
	CPUModel  string    `json:"cpu_model,omitempty"`
	CreatedAt time.Time `json:"created_at"`

	Benchmarks []BenchResult `json:"benchmarks"`
	// WorkersCurve is the 10k-node step cost at each measured worker
	// count (schema v2; absent from v1 baselines).
	WorkersCurve []BenchResult      `json:"workers_curve,omitempty"`
	Continuity   []ContinuityResult `json:"continuity"`
}

// BenchResult is one steady-state step measurement.
type BenchResult struct {
	Name        string `json:"name"`
	Nodes       int    `json:"nodes"`
	Workers     int    `json:"workers"`
	TimedRounds int    `json:"timed_rounds"`
	NsPerOp     int64  `json:"ns_per_op"`
	// BPerOp and AllocsPerOp are the heap bytes and allocation count per
	// timed round (schema v3; zero in v1/v2 baselines, where the
	// allocation gate stays disarmed until the baseline is refreshed).
	BPerOp      int64 `json:"b_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// ResultFingerprint hashes the run's full per-round metrics; two
	// measurements of the same configuration and seed must agree on it
	// regardless of worker count (the bit-identical pipeline contract).
	ResultFingerprint string `json:"result_fingerprint,omitempty"`
}

// ContinuityResult is one Table 1 environment row.
type ContinuityResult struct {
	Environment string  `json:"environment"`
	PCOld       float64 `json:"pc_old"`
	PCNew       float64 `json:"pc_new"`
}

const (
	schemaV1 = "continustreaming-benchreport/v1"
	schemaV2 = "continustreaming-benchreport/v2"
	schemaV3 = "continustreaming-benchreport/v3"
)

func main() {
	var (
		out       = flag.String("out", "BENCH_PR2.json", "report output path (empty = stdout only)")
		baseline  = flag.String("baseline", "", "committed baseline to gate ns/op against")
		update    = flag.String("update-baseline", "", "write the measured report to this baseline path and exit")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression before failing")
		rounds1k  = flag.Int("rounds1k", 5, "timed rounds for the 1k-node step benchmark")
		rounds10k = flag.Int("rounds10k", 2, "timed rounds for the 10k-node step benchmark (0 skips it)")
		curve     = flag.String("curve", "1,4,8", "comma-separated worker counts for the 10k-node speedup curve (empty disables)")
		speedup   = flag.Float64("speedup", 2.5, "required workers=1 / workers=max speedup when the runner has enough CPUs")
		table1    = flag.Bool("table1", true, "run the Table 1 continuity sweep")
		seed      = flag.Uint64("seed", 1, "master random seed")
	)
	flag.Parse()

	rep := Report{
		Schema:    schemaV3,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		CPUModel:  cpuModel(),
		CreatedAt: time.Now().UTC(),
	}

	curveWorkers, err := parseCurve(*curve)
	if err != nil {
		fatalf("%v", err)
	}

	rep.Benchmarks = append(rep.Benchmarks, benchStep("Step1k", 1000, 1, *rounds1k, *seed))
	rep.Benchmarks = append(rep.Benchmarks, benchRoute(*seed))
	if *rounds10k > 0 {
		rep.Benchmarks = append(rep.Benchmarks, benchStep("Step10k", 10000, 1, *rounds10k, *seed))
		rep.Benchmarks = append(rep.Benchmarks,
			benchMaintenance("Maintenance10k", 10000, *rounds10k, *seed),
			benchSchedule("Schedule10k", 10000, *rounds10k, *seed))
		for _, w := range curveWorkers {
			rep.WorkersCurve = append(rep.WorkersCurve,
				benchStep(fmt.Sprintf("Step10k/w%d", w), 10000, w, *rounds10k, *seed))
		}
	}
	for _, b := range append(append([]BenchResult{}, rep.Benchmarks...), rep.WorkersCurve...) {
		fmt.Printf("%-12s nodes=%-6d workers=%d  %d ns/op  %d B/op  %d allocs/op  fp=%s\n",
			b.Name, b.Nodes, b.Workers, b.NsPerOp, b.BPerOp, b.AllocsPerOp, b.ResultFingerprint)
	}

	// The curve's own invariants hold with or without a baseline: every
	// point must reproduce the same simulation bit for bit, and on a
	// runner wide enough to exercise it, the widest point must actually
	// be faster. Identity violations are fatal anywhere — a correctness
	// bug, not a performance one.
	curveFailures, curveNotes := checkCurve(rep, *speedup)
	for _, n := range curveNotes {
		fmt.Println(n)
	}
	if len(curveFailures) > 0 {
		for _, f := range curveFailures {
			fmt.Fprintln(os.Stderr, "CURVE:", f)
		}
		os.Exit(1)
	}

	if *table1 {
		res, err := experiment.RunTable1(experiment.Options{Seed: *seed})
		if err != nil {
			fatalf("table1: %v", err)
		}
		for _, row := range res.Rows {
			rep.Continuity = append(rep.Continuity, ContinuityResult{
				Environment: row.Environment, PCOld: row.PCOld, PCNew: row.PCNew,
			})
			fmt.Printf("%-22s PC_old=%.4f PC_new=%.4f\n", row.Environment, row.PCOld, row.PCNew)
		}
	}

	if *update != "" {
		writeReport(*update, rep)
		fmt.Printf("baseline updated: %s\n", *update)
		return
	}
	if *out != "" {
		writeReport(*out, rep)
	}
	if *baseline != "" {
		res := gate(rep, loadBaseline(*baseline), *tolerance)
		failures, downgraded := verdict(res)
		if len(downgraded) > 0 {
			// The baseline was measured on different hardware: its
			// absolute ns/op values say nothing about this runner, so
			// the regression gate carries no signal. Warn — loudly
			// enough to prompt a baseline refresh — but do not fail.
			warnf("runner fingerprint differs from baseline; ns/op gate downgraded to warnings")
			warnf("refresh the baseline on this runner class: benchreport -update-baseline %s", *baseline)
			for _, f := range downgraded {
				warnf("%s", f)
			}
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Printf("bench gate passed (tolerance %.0f%%)\n", *tolerance*100)
	}
}

// verdict splits a gate result into hard failures and regressions
// downgraded to warnings: ns/op comparisons only bind when the baseline
// was measured on this runner class, while a missing measurement is a
// harness bug and fails on any hardware.
func verdict(res gateResult) (failures, downgraded []string) {
	if res.fingerprintOK {
		failures = res.regressions
	} else {
		downgraded = res.regressions
	}
	failures = append(failures, res.missing...)
	return failures, downgraded
}

// cpuModel reads the CPU model string for the runner fingerprint (best
// effort: empty on platforms without /proc/cpuinfo, which the fingerprint
// comparison treats as unknown-and-mismatching).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok {
			if strings.TrimSpace(name) == "model name" {
				return strings.TrimSpace(value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		// A truncated read is indistinguishable from "no model line";
		// treat it as unknown rather than guessing a fingerprint.
		fmt.Fprintf(os.Stderr, "benchreport: reading /proc/cpuinfo: %v\n", err)
	}
	return ""
}

// sameRunner reports whether a measured report and the baseline carry the
// same runner fingerprint. Two empty CPU models (platforms without
// /proc/cpuinfo) still match when GOOS/GOARCH/CPUs agree — otherwise the
// gate could never fail outside Linux, even against a baseline refreshed
// on the same machine; a model present on one side only is a mismatch.
func sameRunner(rep, base Report) bool {
	return rep.GOOS == base.GOOS && rep.GOARCH == base.GOARCH &&
		rep.CPUs == base.CPUs && rep.CPUModel == base.CPUModel
}

// parseCurve reads the -curve worker list: strictly increasing positive
// counts, so "the widest point" and "the workers=1 anchor" are
// well-defined downstream. Empty input disables the curve.
func parseCurve(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var workers []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -curve entry %q (want a positive worker count)", part)
		}
		if len(workers) > 0 && w <= workers[len(workers)-1] {
			return nil, fmt.Errorf("-curve worker counts must be strictly increasing (%d after %d)", w, workers[len(workers)-1])
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// checkCurve validates the measured workers curve: every point must carry
// the same result fingerprint (bit-identical at any worker count — a
// violation is a determinism bug and fails on any machine), and when the
// runner has at least as many CPUs as the widest point, the widest point
// must beat the workers=1 anchor by minSpeedup. Runners too narrow to
// exercise the parallel gate report it as a note instead — a 1-CPU box
// cannot measure a speedup that requires 8.
func checkCurve(rep Report, minSpeedup float64) (failures, notes []string) {
	curve := rep.WorkersCurve
	if len(curve) == 0 {
		return nil, nil
	}
	for _, b := range curve[1:] {
		if b.ResultFingerprint != curve[0].ResultFingerprint {
			failures = append(failures, fmt.Sprintf(
				"%s: result fingerprint %s differs from %s's %s — the pipeline is not bit-identical across worker counts",
				b.Name, b.ResultFingerprint, curve[0].Name, curve[0].ResultFingerprint))
		}
	}
	var anchor, widest *BenchResult
	for i := range curve {
		if curve[i].Workers == 1 {
			anchor = &curve[i]
		}
		if widest == nil || curve[i].Workers > widest.Workers {
			widest = &curve[i]
		}
	}
	if anchor == nil || widest.Workers <= 1 {
		notes = append(notes, "speedup gate skipped: curve lacks a workers=1 anchor or a parallel point")
		return failures, notes
	}
	if rep.CPUs < widest.Workers {
		notes = append(notes, fmt.Sprintf(
			"speedup gate skipped: runner has %d CPU(s), widest curve point wants %d", rep.CPUs, widest.Workers))
		return failures, notes
	}
	got := float64(anchor.NsPerOp) / float64(widest.NsPerOp)
	if got < minSpeedup {
		failures = append(failures, fmt.Sprintf(
			"workers=%d speedup %.2fx over workers=1 is below the required %.2fx",
			widest.Workers, got, minSpeedup))
	} else {
		notes = append(notes, fmt.Sprintf("speedup gate passed: workers=%d is %.2fx over workers=1 (need %.2fx)",
			widest.Workers, got, minSpeedup))
	}
	return failures, notes
}

// benchStep measures steady-state World.Step cost: the world warms past
// the playback delay so every phase (scheduling, transfers, pre-fetch,
// maintenance, churn, repair) carries its full load, then timedRounds
// steps are timed. This mirrors core's BenchmarkStep1k/Step10k without
// the testing harness, so CI can run it as a plain binary. Allocation
// cost rides along via runtime.MemStats deltas — Mallocs and TotalAlloc
// are monotonic, so the numbers are exact regardless of when the GC runs
// inside the timed window. The returned fingerprint hashes every
// per-round metrics sample of the run (warm-up and timed), so any two
// invocations with the same configuration and seed must agree on it no
// matter how many workers executed the rounds.
func benchStep(name string, nodes, workers, timedRounds int, seed uint64) BenchResult {
	w, engine := warmWorld(name, nodes, workers, seed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	engine.Run(timedRounds)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	h := fnv.New64a()
	for _, s := range w.Collector().Samples() {
		fmt.Fprintf(h, "%+v\n", s)
	}
	return BenchResult{
		Name:              name,
		Nodes:             nodes,
		Workers:           workers,
		TimedRounds:       timedRounds,
		NsPerOp:           elapsed.Nanoseconds() / int64(timedRounds),
		BPerOp:            int64(after.TotalAlloc-before.TotalAlloc) / int64(timedRounds),
		AllocsPerOp:       int64(after.Mallocs-before.Mallocs) / int64(timedRounds),
		ResultFingerprint: fmt.Sprintf("%016x", h.Sum64()),
	}
}

// warmWorld is core.BenchWorld, exiting on error.
func warmWorld(name string, nodes, workers int, seed uint64) (*core.World, *sim.Engine) {
	w, engine, err := core.BenchWorld(nodes, workers, seed)
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	return w, engine
}

// benchMaintenance isolates the neighbour-maintenance phase on a warmed
// world — the core.BenchmarkMaintenance10k measurement as a gateable CI
// number. No fingerprint: the phase's output is mesh mutation, which the
// whole-step fingerprints already cover.
func benchMaintenance(name string, nodes, iters int, seed uint64) BenchResult {
	w, _ := warmWorld(name, nodes, 1, seed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		w.BenchMaintenanceRound()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return BenchResult{
		Name:        name,
		Nodes:       nodes,
		Workers:     1,
		TimedRounds: iters,
		NsPerOp:     elapsed.Nanoseconds() / int64(iters),
		BPerOp:      int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
	}
}

// benchSchedule isolates the scheduling slice of a round (exchange +
// word-parallel candidate enumeration + Algorithm 1 selection) through the
// exported seam, which unwinds its own pending-request marks so every
// iteration schedules identical work. The fingerprint hashes each
// iteration's scheduled-request count — constant across iterations and
// across machines for a fixed seed.
func benchSchedule(name string, nodes, iters int, seed uint64) BenchResult {
	w, engine := warmWorld(name, nodes, 1, seed)
	h := fnv.New64a()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fmt.Fprintf(h, "%d\n", w.BenchSchedulePhase(engine.Clock()))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return BenchResult{
		Name:              name,
		Nodes:             nodes,
		Workers:           1,
		TimedRounds:       iters,
		NsPerOp:           elapsed.Nanoseconds() / int64(iters),
		BPerOp:            int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		AllocsPerOp:       int64(after.Mallocs-before.Mallocs) / int64(iters),
		ResultFingerprint: fmt.Sprintf("%016x", h.Sum64()),
	}
}

// benchRoute prices the allocation-free DHT routing core on warm converged
// tables at the Figure 3 scale (4096 alive nodes in an 8192-ID space):
// greedy walks between uniformly random origin/target pairs, the call the
// round pipeline's pre-fetch, rescue and repair paths issue thousands of
// times per round. The fingerprint folds every walk's hop count and
// outcome, so a routing-behaviour change cannot pass as a perf win.
func benchRoute(seed uint64) BenchResult {
	const (
		spaceN = 8192
		nodes  = 4096
		routes = 200000
	)
	space := dht.NewSpace(spaceN)
	net := dht.NewNetwork(space)
	rng := sim.DeriveRNG(seed, 0xb0d7e)
	joined := 0
	for joined < nodes {
		if net.Join(dht.ID(rng.Intn(space.N())), rng) != nil {
			joined++
		}
	}
	for _, id := range net.IDs() {
		net.FillTable(net.Table(id), rng)
	}
	ids := net.IDs()
	// The walk outcomes fold into plain integers inside the timed loop —
	// hashing per route would bill its allocations to the allocation-free
	// routing core — and hash afterwards.
	var totalHops, succeeded uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < routes; i++ {
		from := ids[rng.Intn(len(ids))]
		target := dht.ID(rng.Intn(space.N()))
		r := net.RouteTo(from, target, nil)
		totalHops += uint64(r.Hops)
		if r.Success {
			succeeded++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d\n", routes, totalHops, succeeded)
	return BenchResult{
		Name:              "Route",
		Nodes:             nodes,
		Workers:           1,
		TimedRounds:       routes,
		NsPerOp:           elapsed.Nanoseconds() / int64(routes),
		BPerOp:            int64(after.TotalAlloc-before.TotalAlloc) / int64(routes),
		AllocsPerOp:       int64(after.Mallocs-before.Mallocs) / int64(routes),
		ResultFingerprint: fmt.Sprintf("%016x", h.Sum64()),
	}
}

// gateResult separates the two failure classes: ns/op regressions (only
// meaningful on matching hardware — downgraded to warnings otherwise) and
// missing measurements (a harness bug on any hardware — always fatal).
type gateResult struct {
	regressions   []string
	missing       []string
	fingerprintOK bool
}

// loadBaseline reads and validates a committed baseline report. A
// structurally-valid JSON file that is not a benchreport baseline (wrong
// schema tag, or no measurements at all) must fail the gate, not
// silently pass it with nothing to compare against. Older schemas are
// accepted — a v1 baseline (no workers curve) and a v2 baseline (no
// allocation figures) still gate what they recorded, and the newer
// comparisons simply have no reference until the baseline is refreshed.
func loadBaseline(path string) Report {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("baseline: %v", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("baseline %s: %v", path, err)
	}
	if base.Schema != schemaV1 && base.Schema != schemaV2 && base.Schema != schemaV3 {
		fatalf("baseline %s: schema %q, want %q, %q or %q", path, base.Schema, schemaV1, schemaV2, schemaV3)
	}
	if len(base.Benchmarks) == 0 {
		fatalf("baseline %s: no benchmarks recorded; refresh it with -update-baseline", path)
	}
	return base
}

// gate compares measured ns/op, B/op and allocs/op — the plain
// benchmarks and the workers curve alike — against the baseline report,
// returning one message per measurement whose cost grew beyond the
// tolerance plus whether the runner fingerprints match (mismatches
// downgrade the cost messages to warnings at the caller; allocation
// counts are steadier across hardware than wall time, but a different
// memory allocator or word size can still move them, so they share the
// downgrade). The allocation checks arm only when the baseline recorded
// a non-zero figure — v1/v2 baselines carry none. Measurements missing
// from either side are reported too: a silently dropped measurement must
// not pass the gate. Curve points absent from the baseline are exempt
// from the missing check when the baseline predates the curve schema
// entirely.
func gate(rep, base Report, tolerance float64) gateResult {
	baseBench := map[string]BenchResult{}
	for _, b := range append(append([]BenchResult{}, base.Benchmarks...), base.WorkersCurve...) {
		baseBench[b.Name] = b
	}
	res := gateResult{fingerprintOK: sameRunner(rep, base)}
	seen := map[string]bool{}
	for _, b := range append(append([]BenchResult{}, rep.Benchmarks...), rep.WorkersCurve...) {
		seen[b.Name] = true
		ref, ok := baseBench[b.Name]
		if !ok {
			continue // new measurement: nothing to gate against yet
		}
		checks := []struct {
			unit      string
			got, want int64
		}{
			{"ns/op", b.NsPerOp, ref.NsPerOp},
			{"B/op", b.BPerOp, ref.BPerOp},
			{"allocs/op", b.AllocsPerOp, ref.AllocsPerOp},
		}
		for _, c := range checks {
			if c.want <= 0 {
				continue // pre-v3 baseline (or unmeasured): nothing to gate
			}
			limit := float64(c.want) * (1 + tolerance)
			if float64(c.got) > limit {
				res.regressions = append(res.regressions, fmt.Sprintf(
					"%s: %d %s exceeds baseline %d %s by more than %.0f%%",
					b.Name, c.got, c.unit, c.want, c.unit, tolerance*100))
			}
		}
	}
	for name := range baseBench {
		if !seen[name] {
			res.missing = append(res.missing, fmt.Sprintf("%s: present in baseline but not measured", name))
		}
	}
	sort.Strings(res.regressions)
	sort.Strings(res.missing)
	return res
}

func writeReport(path string, rep Report) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

// warnf surfaces a non-fatal gate downgrade. Under GitHub Actions it
// emits a ::warning workflow command, which annotates the run in the
// checks UI instead of scrolling by in the log; elsewhere it prints a
// plain WARNING line on stderr.
func warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		// Workflow commands are parsed off stdout; newlines would split
		// the annotation, so they are escaped per the Actions spec.
		esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(msg)
		fmt.Printf("::warning title=benchreport::%s\n", esc)
		return
	}
	fmt.Fprintln(os.Stderr, "WARNING:", msg)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchreport: "+format+"\n", args...)
	os.Exit(1)
}
