package core

import (
	"continustreaming/internal/churn"
	"continustreaming/internal/metrics"
	"continustreaming/internal/sim"
)

// This file exports phase-level benchmark seams for cmd/benchreport: CI
// gates the maintenance and scheduling cost centres individually, not just
// the whole-round step, so a regression in one phase cannot hide inside
// another phase's improvement. The seams run real phase drivers against a
// warmed world; they exist for measurement only and are not part of the
// simulation API.

// BenchWorld builds the standard benchmark world — a churn-enabled
// ContinuStreaming overlay of n nodes on the given worker-pool width and
// seed — and runs it past the playback delay, so every phase a caller
// then times (scheduling, transfers, deliveries, pre-fetch, maintenance,
// churn, repair) carries its full steady-state load. The go test
// benchmarks and cmd/benchreport both warm up through it.
func BenchWorld(n, workers int, seed uint64) (*World, *sim.Engine, error) {
	cfg := DefaultConfig(n)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Workers = workers
	cfg.Seed = seed
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, nil, err
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(cfg.PlaybackDelayRounds + 2)
	return w, engine, nil
}

// BenchMaintenanceRound executes one maintenance phase against the current
// world state — the same call the round pipeline makes. Repeated calls are
// meaningful benchmark iterations: maintenance is idempotent on a stable
// mesh apart from the paced replacements it decides, exactly the
// steady-state work the gate should price.
func (w *World) BenchMaintenanceRound() { w.maintenancePhase() }

// BenchSchedulePhase executes the scheduling slice of the clock's round —
// buffer-map exchange, candidate enumeration, and Algorithm 1 request
// selection — and returns how many requests were scheduled. It first
// enters the round the way Step does (beginRound, a no-op on repeat
// calls), so every buffer window opens at the round's playback position
// and enumeration takes the same aliasing path as in Step. Before
// returning it unwinds the pending-request marks the scheduler set (a
// gossipExpiry at or below the current round is behaviourally identical
// to the zero "no pending request" state, so resetting the scheduled IDs
// to 0 restores the exact candidate set), which makes repeated calls
// schedule identical work — the property a benchmark iteration needs.
func (w *World) BenchSchedulePhase(clock *sim.Clock) int {
	w.round = clock.Round()
	w.beginRound()
	var sample metrics.RoundSample
	snaps := w.exchangePhase(&sample)
	index := w.buildIndex()
	requests := w.schedulePhase(clock, snaps, index)
	total := 0
	for i, reqs := range requests {
		if len(reqs) == 0 {
			continue
		}
		total += len(reqs)
		n := w.seq[i]
		for _, req := range reqs {
			if s, ok := n.seg.slot(req.ID); ok {
				n.seg.gossipExpiry[s] = 0
			}
		}
	}
	return total
}
