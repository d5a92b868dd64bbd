package core

import (
	"fmt"
	"runtime"
	"testing"

	"continustreaming/internal/sim"
)

// benchStep measures steady-state World.Step cost at population n with the
// given worker-pool width on the warmed benchmark world.
func benchStep(b *testing.B, n, workers int) {
	b.Helper()
	_, engine := benchWorld(b, n, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(1)
	}
}

// benchWorld is BenchWorld at seed 1, failing the benchmark on error.
func benchWorld(b *testing.B, n, workers int) (*World, *sim.Engine) {
	b.Helper()
	w, engine, err := BenchWorld(n, workers, 1)
	if err != nil {
		b.Fatal(err)
	}
	return w, engine
}

// BenchmarkStep10k drives one scheduling period of a 10,000-node overlay
// under churn — past the paper's largest evaluation size — once with a
// single worker (the pre-refactor sequential resolve path's concurrency)
// and once with every available core. The sharded pipeline guarantees both
// configurations produce bit-identical simulations; the benchmark exists
// to show the wall-clock gap between them on multi-core hardware.
func BenchmarkStep10k(b *testing.B) {
	widths := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		widths = append(widths, p)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchStep(b, 10000, workers)
		})
	}
}

// BenchmarkStep1k is the paper-scale reference point for the same
// measurement.
func BenchmarkStep1k(b *testing.B) {
	widths := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		widths = append(widths, p)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchStep(b, 1000, workers)
		})
	}
}

// BenchmarkSchedule10k isolates the scheduling slice of a round — buffer-
// map exchange, word-parallel candidate enumeration, Algorithm 1 selection
// — on a warmed 10,000-node world under churn, through the same exported
// seam cmd/benchreport gates in CI. BenchSchedulePhase unwinds the
// pending-request marks it sets, so every iteration schedules the
// identical candidate load.
func BenchmarkSchedule10k(b *testing.B) {
	w, engine := benchWorld(b, 10000, 1)
	want := w.BenchSchedulePhase(engine.Clock())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := w.BenchSchedulePhase(engine.Clock()); got != want {
			b.Fatalf("iteration scheduled %d requests, first pass scheduled %d — unwind failed", got, want)
		}
	}
}

// BenchmarkMaintenance10k isolates the neighbour-maintenance phase on a
// warmed 10,000-node world under churn: membership-gossip scatter, hear
// delivery and dead-neighbour cleanup, rewire planning through the
// provider seam, and the sequential intent application. The phase runs
// entirely out of the round-lived shard arenas, so allocs/op is the
// headline number — it must stay near zero as the planning fast path and
// arena reuse carry the steady state.
func BenchmarkMaintenance10k(b *testing.B) {
	w, _ := benchWorld(b, 10000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.maintenancePhase()
	}
}
