// Package protocol is the transport-agnostic core of the streaming
// protocol: the per-node decision functions and state machines that both
// runtimes — the deterministic BSP simulator (internal/core) and the
// goroutine-per-peer livenet runtime (internal/livenet) — drive with their
// own notion of time, membership and message passing.
//
// Everything here is pure with respect to the hosting runtime: functions
// take explicit inputs (local views, buffer-map snapshots, an RNG stream,
// clock values) and return intents (sends, grants, rewires) that the
// caller executes over whatever transport it owns. The package knows
// nothing of sim.MapReduce, goroutines or channels; that is what makes the
// same code paths runnable inside a bit-deterministic sharded pipeline and
// across real message passing.
//
// The decision families:
//
//   - Membership maintenance — SCAMP-style membership gossip picks
//     (GossipPicks) and the paper's neighbour maintenance rules with
//     distress-scaled low-supply replacement (PlanRewire).
//   - DHT upkeep — refresh cadence (RepairDue) and the backup
//     re-evaluation trigger when a node's believed successor moves
//     (SuccessorMoved), which stops replica decay under arc reshuffle.
//   - Fresh-segment push — breadth-first eager forwarding plans for newly
//     generated segments (PlanPush), the dissemination engine's answer to
//     the pull-epidemic depth gap at 8000+ nodes.
//   - Supplier-side service — earliest-deadline-first serving with a
//     neighbourhood-rarity tie-break and bounded carry queues (PlanServe,
//     Serve), plus the published pull-only round-robin discipline the
//     CoolStreaming baseline keeps (ServeRoundRobin), and the sharded
//     supplier-state container (Engine).
//
// Design notes for the dissemination engine (push + EDF serve + queueing)
// live with the respective functions; the three are one coordinated
// mechanism — EDF service without push seeding starves the frontier
// replication that keeps new content multiplying.
package protocol

import (
	"continustreaming/internal/overlay"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// Request is one requester→supplier ask as the supplier's service
// discipline sees it.
type Request struct {
	// Requester is the asking node.
	Requester overlay.NodeID
	// ID is the requested segment.
	ID segment.ID
	// Deadline is the latest useful arrival time of the segment at the
	// requester (the end of the scheduling period it plays in).
	Deadline sim.Time
	// Rarity is the supplier-side rarity of the segment (equation (2)
	// evaluated over the supplier's neighbour buffer maps); rarer
	// segments win deadline ties because their copies are about to
	// vanish from the neighbourhood.
	Rarity float64
	// Expected is the requester's expected completion offset, used only
	// by the baseline round-robin discipline (ServeRoundRobin).
	Expected sim.Time
	// Carried marks a request served out of the carry queue rather than
	// scheduled this round.
	Carried bool
}

// Send is one eager fresh-segment transmission.
type Send struct {
	From, To overlay.NodeID
	ID       segment.ID
}

// SupplierRarityUniform is the supplier-side rarity (see RarityView) of a
// segment held by count neighbours that share one FIFO position — the
// aligned-window case: when every advertised buffer opens at the shared
// playback position, a segment's position-from-tail is identical in each
// holder, so the holder set collapses to a popcount and the product to a
// repeated factor. The multiply loop below performs the same operation
// sequence as the general product over an equal-valued positions list,
// keeping the float result bit-identical.
func SupplierRarityUniform(bufferSize, position, count int) float64 {
	p := rarityFactor(bufferSize, position)
	r := 1.0
	for i := 0; i < count; i++ {
		r *= p
	}
	return r
}

// rarityFactor is one holder's factor p_ij/B of equation (2), clamped
// into [0, 1].
func rarityFactor(bufferSize, position int) float64 {
	p := float64(position) / float64(bufferSize)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}
