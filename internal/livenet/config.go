package livenet

import (
	"time"

	"continustreaming/internal/protocol"
)

// Config parameterises a live session. Protocol constants default from
// protocol.Default() — the same source the simulator's core.DefaultConfig
// derives from — so the two runtimes cannot drift apart on M, p, B, O or
// the engine knobs.
type Config struct {
	// Peers is the number of receivers (the source is extra).
	Peers int
	// Neighbors is M, the connected-neighbour target maintenance refills
	// toward.
	Neighbors int
	// SourceDegree is the degree protection held at the source (0 falls
	// back to 2·Neighbors): the root's edges are where fresh segments
	// enter the mesh.
	SourceDegree int
	// Period is the real-time scheduling period (scaled-down τ).
	Period time.Duration
	// Rate is p in segments per period.
	Rate int
	// BufferSegments is B.
	BufferSegments int
	// OutboundPerPeriod bounds how many segments a peer serves per period
	// (O); the backlog horizon and carry queue scale from it exactly as
	// in the simulator.
	OutboundPerPeriod int
	// SourceOutbound bounds the source's serving capacity (the paper's
	// source has a much fatter uplink, O = 100).
	SourceOutbound int
	// PlaybackLagPeriods is how many periods playback trails the live
	// edge; real message passing needs a few periods of pipeline.
	PlaybackLagPeriods int
	// PushHops is the dissemination engine's fresh-segment push depth:
	// the source sprays each new segment to its neighbours, and receivers
	// forward it on for PushHops-1 more hops. 0 disables the push.
	PushHops int
	// QueueFactor bounds the supplier-side carry queue at QueueFactor ×
	// OutboundPerPeriod requests; 0 disables queueing (drop-and-retry).
	QueueFactor int
	// Replicas is k, the backup copies per segment on the rescue ring.
	Replicas int
	// RescueLimit caps DHT-backed rescues per peer per period (the
	// paper's l).
	RescueLimit int
	// DeadAfterPeriods is how many silent periods (no buffer-map
	// announcement) make a neighbour presumed dead. Mesh repair then
	// drops and replaces it.
	DeadAfterPeriods int
	// RetryPeriods is how many periods an in-flight pull or rescue stays
	// pending before the peer re-asks (0 = the default 2). On a shaped
	// link whose round trip exceeds a period, widen it so a slow-but-
	// arriving grant is not double-requested; under heavy loss keep it
	// tight so dropped grants re-fire quickly.
	RetryPeriods int
	// Resync enables continuous clock re-sync on the socket path: every
	// wire message carries the sender's period stamp, and a node that
	// finds itself behind the newest stamp at a tick jumps its period
	// counter forward (and re-phases its ticker). Without it a node's
	// clock is synced exactly once, by the bootstrap handshake.
	// DefaultConfig enables it. An in-process session has no use for it:
	// one ticker drives every node's periods, so no node can fall behind.
	Resync bool
	// LowSupplyThreshold overrides the shared low-supply replacement
	// threshold (segments/period below which a struggling peer may swap
	// a neighbour out): 0 keeps the protocol default, negative disables
	// low-supply replacement entirely (dead-neighbour repair still
	// runs). ReplaceCooldownPeriods spaces successive replacements by
	// the same peer (0 keeps the livenet default).
	LowSupplyThreshold     float64
	ReplaceCooldownPeriods int
	// Engine enables the dissemination engine (push + EDF serve + carry
	// queues); off, suppliers keep the published pull-only round-robin
	// discipline. Repair enables mesh repair and the DHT rescue path.
	// Both default on; the EXPERIMENTS kill-scenario comparison turns
	// them off one at a time.
	Engine bool
	Repair bool
	// Churn scripts membership events an in-process session (Run)
	// applies at period boundaries; nil runs a static session.
	Churn []ChurnEvent
	// Seed drives topology and policy randomness.
	Seed uint64
}

// ChurnEvent is one scripted membership change: at the start of period
// Period, kill KillFraction of the running non-source nodes (abrupt node
// exits — no goodbye, neighbours discover the silence) and start Join
// newcomers that bootstrap through the source as rendezvous point.
type ChurnEvent struct {
	Period       int
	KillFraction float64
	Join         int
}

// DefaultConfig returns a laptop-friendly live session wired to the
// shared protocol defaults.
func DefaultConfig() Config {
	d := protocol.Default()
	return Config{
		Peers:              24,
		Neighbors:          d.M,
		SourceDegree:       2 * d.M,
		Period:             50 * time.Millisecond,
		Rate:               d.Rate,
		BufferSegments:     d.BufferSegments,
		OutboundPerPeriod:  d.OutboundPerPeriod,
		SourceOutbound:     d.SourceOutbound,
		PlaybackLagPeriods: 6,
		PushHops:           d.PushHops,
		QueueFactor:        d.QueueFactor,
		Replicas:           d.Replicas,
		RescueLimit:        d.PrefetchLimit,
		DeadAfterPeriods:   3,
		Engine:             true,
		Repair:             true,
		Resync:             true,
		Seed:               1,
	}
}

// retryPeriods resolves the pending-window default.
func (c Config) retryPeriods() int {
	if c.RetryPeriods > 0 {
		return c.RetryPeriods
	}
	return 2
}

// maintenanceTuning maps the shared defaults onto the per-period rewire
// decision; the cooldown is shortened to livenet's faster period scale.
func (c Config) maintenanceTuning() protocol.MaintenanceTuning {
	d := protocol.Default()
	t := protocol.MaintenanceTuning{
		LowSupplyThreshold:      d.Maintenance.LowSupplyThreshold,
		ReplaceCooldownRounds:   4,
		MaxDistressReplacements: d.Maintenance.MaxDistressReplacements,
	}
	if c.LowSupplyThreshold > 0 {
		t.LowSupplyThreshold = c.LowSupplyThreshold
	} else if c.LowSupplyThreshold < 0 {
		t.LowSupplyThreshold = 0
	}
	if c.ReplaceCooldownPeriods > 0 {
		t.ReplaceCooldownRounds = c.ReplaceCooldownPeriods
	}
	return t
}

// sourceDegree resolves the source's degree target.
func (c Config) sourceDegree() int {
	if c.SourceDegree > 0 {
		return c.SourceDegree
	}
	return 2 * c.Neighbors
}

// inboxSlots sizes a peer's inbox from the protocol's per-period traffic
// rather than from the session size alone: per period a peer hears at
// most a map, O asks and p pushed copies from each link, with links
// counted at the source's degree target, the largest any peer maintains.
// Four periods of that traffic cover an inbox goroutine that waits out
// an in-process session's plan and serve passes. A small session is
// capped lower, at 16 messages per peer in it.
func (c Config) inboxSlots() int {
	perPeriod := c.sourceDegree() * (1 + c.OutboundPerPeriod + c.Rate)
	return max(256, min(4*perPeriod, 16*(c.Peers+1)))
}
