// Command perfbench is the repository's benchmark. It drives four named
// workloads through the deterministic simulator and both livenet
// drivers, checks their outputs, and prints one JSON result line.
//
//	sim-churn8k    ScenarioHetDynamic(8000): the full system under 5%/round churn
//	sim-pull8k     ScenarioBaseline(8000): CoolStreaming pull in a static overlay
//	live-churn512  livenet.Run, 512 receivers, 25% killed at mid-session and rejoined
//	live-udp32     a source and 32 receivers as livenet.Nodes over shaped loopback UDP
//
// Every layer is timed from outside: the benchmark times its calls into
// each layer's public functions and, in the simulator, uses the
// name-only Config.PhaseProbe hook at the round's phase boundaries.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a
// separate traced run prints the per-layer metrics and writes its spans
// to --out. All randomness derives from --seed. Every workload prints
// every metric BENCHMARK.json lists for the mode: the end-to-end ones
// (set-up time, real-time factor, CPU per period, peak RSS) mean the
// same on the simulator, where a round is one period τ, and on livenet;
// a per-layer metric of a layer the workload does not drive reads 0
// over 0 samples.
//
// The simulator workloads run a fixed amount of work (worlds × rounds),
// so two versions of the program always time the same rounds; the live
// workloads run sessions until --seconds have passed and report medians
// over them.
//
// Build and run it from the repository root through the wrapper, which
// keeps the Go build cache inside the checkout:
//
//	bash perfbench/run.sh --workload sim-pull8k --seed 1 --seconds 20 --trace 0
//
// Each metric is printed on a "metric" line with its unit and sample
// count, each output check on a "check" line, and the last line of
// standard output is
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The exit status is non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"continustreaming"
)

// env is one benchmark invocation.
type env struct {
	seed    uint64
	seconds int
	trace   bool
	tr      *tracer // nil unless tracing
	record  *runRecord
}

// budget is how long a run keeps measuring after its required work.
func (e *env) budget() time.Duration { return time.Duration(e.seconds) * time.Second }

// workloads maps each workload name to its driver.
var workloads = map[string]func(e *env) *result{
	// From about round 20 the dynamic system's continuity, and with it
	// the round cost, drifts to a level that differs widely between
	// seeds; four short worlds pool four seeds into each run's median.
	"sim-churn8k": func(e *env) *result {
		return runSim(e, simWorkload{scenario: continustreaming.ScenarioHetDynamic, nodes: 8000, worlds: 4, rounds: 40, prefetch: true})
	},
	"sim-pull8k": func(e *env) *result {
		return runSim(e, simWorkload{scenario: continustreaming.ScenarioBaseline, nodes: 8000, worlds: 2, rounds: 110})
	},
	"live-churn512": func(e *env) *result { return runLive(e, churnWorkload()) },
	"live-udp32":    func(e *env) *result { return runLive(e, udpWorkload(e)) },
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 20, "seconds the live workloads run sessions for (the simulator workloads run fixed work)")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := flag.String("out", ".bench_build/spans", "directory for the traced run's span file")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	rec := newRunRecord(*workload, *seed, *trace == 1, *seconds)
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, record: &rec}
	if e.trace {
		e.tr = newTracer(fmt.Sprintf("%s-seed%d", *workload, *seed))
	}
	res := run(e)
	rec.Samples = res.samples
	if err := res.matchManifest(manifestPath, e.trace); err != nil {
		res.check("manifest", false, "%v", err)
	}

	if e.trace {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		err := e.tr.write(path, rec)
		res.check("trace.write", err == nil, "%d spans to %s %v", len(e.tr.spans), path, err)
	}

	line, _ := json.Marshal(rec)
	fmt.Printf("run %s\n", line)
	for _, m := range res.metrics {
		fmt.Printf("metric %-36s %14.6f %-12s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("check  %-36s %-4s %s\n", c.Name, status, c.Detail)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	attempted := max(res.attempted, 1)
	summary, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(summary))
	if !res.correct() {
		os.Exit(1)
	}
}
