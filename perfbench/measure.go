package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"continustreaming/internal/sim"
)

// metric is one reported number: its name and unit as BENCHMARK.json
// lists them, and how many samples it summarises.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// check is one output check; a failed check fails the run.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// result collects a workload run's metrics and checks. Attempted counts
// the units of work the run drove (simulated rounds, live peer-periods,
// codec round trips); Failed those that did not complete.
type result struct {
	metrics   []metric
	checks    []check
	attempted int
	failed    int
	samples   int
}

func (r *result) add(name, unit string, v float64, samples int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every check passed and no work failed.
func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// manifestPath is BENCHMARK.json, read from the repository root the
// benchmark runs in.
const manifestPath = "BENCHMARK.json"

// matchManifest holds the result to the metric list BENCHMARK.json gives
// for the run's mode: per-layer metrics when tracing, end-to-end ones
// otherwise. Every end-to-end metric must be reported on every
// workload. A per-layer metric of a layer the workload does not drive
// (a simulator phase in a live session, the socket path in the
// in-process driver) is reported as 0 over 0 samples. A metric the
// manifest does not list, or lists with another unit, is an error. The
// metrics are left in the manifest's order.
func (r *result) matchManifest(path string, trace bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var manifest struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	want := manifest.EndToEnd
	if trace {
		want = manifest.PerLayer
	}
	got := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		if _, dup := got[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		got[m.Name] = m
	}
	matched := make([]metric, 0, len(want))
	var missing []string
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok && trace:
			m = metric{Name: w.Name, Unit: w.Unit}
		case !ok:
			missing = append(missing, w.Name)
			continue
		case m.Unit != w.Unit:
			return fmt.Errorf("metric %s in %s, %s lists %s", m.Name, m.Unit, path, w.Unit)
		}
		delete(got, w.Name)
		matched = append(matched, m)
	}
	if len(missing) > 0 {
		return fmt.Errorf("end-to-end metrics not reported: %s", strings.Join(missing, ", "))
	}
	for name := range got {
		return fmt.Errorf("metric %s is not in %s", name, path)
	}
	r.metrics = matched
	return nil
}

// runRecord names the runner class and inputs of one benchmark run, so
// every number it prints can be traced to the hardware and seed that
// produced it.
type runRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	Samples    int    `json:"samples"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func newRunRecord(workload string, seed uint64, trace bool, seconds int) runRecord {
	return runRecord{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Seconds:    seconds,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// deriveSeed gives each consumer of randomness (the simulator, a live
// session, the traffic shaper, the codec message mix) its own stream of
// the workload seed. The result is never 0, which the public API reads
// as "use the default seed".
func deriveSeed(seed, stream uint64) uint64 {
	return sim.DeriveRNG(seed, stream).Uint64() | 1
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns the process's resident set (VmRSS) in MiB, 0 when
// /proc is unavailable.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssEvery is how often peakRSS samples the resident set.
const rssEvery = 5 * time.Millisecond

// peakRSS runs fn and returns the largest resident set in MiB seen while
// it ran, sampled every rssEvery. It first returns freed memory to the
// OS, so each call sees its own peak rather than the process's largest
// so far: a run reports the median over its worlds or sessions, which
// one stray garbage-collection peak does not move.
func peakRSS(fn func()) float64 {
	debug.FreeOSMemory()
	done := make(chan struct{})
	result := make(chan float64)
	go func() {
		peak := rssMB()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- max(peak, rssMB())
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	fn()
	close(done)
	return <-result
}

// cpuModel reads the CPU model string for the run record (empty when
// /proc/cpuinfo is unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced interval. Spans of one run share Run; a round span
// parents its phase spans, a session span its period spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them once, when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// open starts a span now and returns its ID.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.record(name, parent, time.Now(), time.Time{})
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	if t == nil || id <= 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// record stores a finished span (an open one when end is zero).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: start.Sub(t.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.epoch).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// write stores the run record and every span as JSON lines.
func (t *tracer) write(path string, rec runRecord) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
