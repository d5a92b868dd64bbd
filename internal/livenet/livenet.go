// Package livenet runs the streaming protocol over real message passing:
// one Node per peer, each with an inbox goroutine, and a wall-clock ticker
// driving scheduling periods (scaled down so demos finish in seconds). It
// is the repro of the paper's planned PlanetLab deployment — and it
// drives the same transport-agnostic decision core (internal/protocol)
// as the deterministic simulator: mesh repair under churn (PlanRewire +
// GossipPicks), DHT-backed rescue of urgent holes (BackupResponsible +
// the urgent-line prediction), fresh-segment push (PlanPushMask), pull
// scheduling over the word-parallel candidate enumerator (Candidates)
// and supplier-side EDF serving with bounded carry queues and the shared
// rarity view (PlanServe + RarityView). Only the input assembly and the
// transport differ; the decisions are the shared code paths, which is
// what the sim↔livenet parity tests pin. Neighbour maps lag by up to a
// period here, so they take the enumerator's shifting path where the
// simulator's aligned maps are read in place; suppliers come out in
// ascending neighbour order in both runtimes.
//
// Node is the one per-peer runtime. A peer knows who is alive only from
// what it hears — messages and piggybacked gossip, expired after a TTL —
// and places DHT keys on the ring it builds from that view; a newcomer
// joins through the source acting as rendezvous point. The two ways to
// run Nodes differ only in the clock: Node.Run drives one node per
// process over UDP from its own ticker, and Run drives an in-process
// session of N+1 nodes over channels from one shared ticker.
package livenet

import (
	"context"
	"math"
	"slices"
	"time"

	"continustreaming/internal/dht"
	"continustreaming/internal/sim"
)

// ringSpace is the rescue ring's identifier space: comfortably larger
// than any in-process session so recycled peer IDs spread uniformly.
const ringSpace = 1 << 14

// Stats summarises a finished session.
type Stats struct {
	// Periods is how many scheduling periods ran.
	Periods int
	// Delivered counts segment deliveries (first copies) across all peers.
	Delivered int64
	// Continuity is the fraction of peer-periods in which a peer held
	// every segment due that period; PerPeriod is its per-period trace
	// (one entry per evaluated period, i.e. from PlaybackLagPeriods on).
	Continuity float64
	PerPeriod  []float64
	// PushDelivered counts first copies that arrived via the eager push,
	// Rescued via the DHT backup path (RescueAsked the attempts).
	PushDelivered int64
	Rescued       int64
	RescueAsked   int64
	// QueueServed counts grants served out of supplier carry queues;
	// QueueCarried the requests carried across a period boundary.
	QueueServed  int64
	QueueCarried int64
	// DeadDropped counts neighbour links dropped because the far side
	// died; Replaced counts low-supply replacements.
	DeadDropped int64
	Replaced    int64
	// Killed and Joined count the scripted churn an in-process session
	// applied: node exits and rendezvous joins.
	Killed int
	Joined int
	// EndDeadLinks counts links, over the nodes still running when the
	// session drained, whose far side had been silent past
	// Config.DeadAfterPeriods — zero when mesh repair kept up with the
	// churn.
	EndDeadLinks int
	// AsksSent/AsksReceived/GrantsSent/GrantsEvicted trace the pull
	// funnel: requests scheduled, requests that reached a supplier, data
	// grants transmitted, and requests the service discipline abandoned.
	AsksSent      int64
	AsksReceived  int64
	GrantsSent    int64
	GrantsEvicted int64
	// Loss accounting, separable by mechanism so a CI gate (or a human
	// reading the stats line) can tell WAN loss from local overload:
	// TransportDropped counts messages discarded because a receiving
	// inbox was full (every node's in an in-process session, the node's
	// own on the socket path), and InboxHighWater is the deepest inbox
	// backlog a delivery left behind, the margin the inbox size
	// (Config.inboxSlots) is judged against. ShapeDropped counts
	// datagrams the traffic shaper consumed as injected link loss,
	// ShapeDelayed datagrams it released late (latency, jitter or
	// bandwidth queueing). Resyncs counts clock re-anchor jumps taken
	// (see Config.Resync). The shaper and re-sync counters are zero in an
	// in-process session: it has no sockets, and its one ticker is every
	// node's clock.
	TransportDropped int64
	InboxHighWater   int64
	ShapeDropped     int64
	ShapeDelayed     int64
	Resyncs          int
	// BehindPeriods counts scheduling ticks at which this node's period
	// counter trailed the newest period stamp heard from the network —
	// the liveness drift a stalled node accumulates. With Resync on, a
	// node is behind for at most the tick that re-anchors it; without,
	// a stall leaves it behind (playing late against a deep buffer, so
	// local continuity alone cannot see it) for the rest of the run.
	// Zero in an in-process session, whose nodes share one clock.
	BehindPeriods int
}

// TailContinuity returns the mean of the last n per-period continuity
// samples (all of them when fewer exist) — the recovery metric the churn
// scenarios assert on.
func (s Stats) TailContinuity(n int) float64 {
	if len(s.PerPeriod) == 0 {
		return 0
	}
	if n > len(s.PerPeriod) {
		n = len(s.PerPeriod)
	}
	sum := 0.0
	for _, v := range s.PerPeriod[len(s.PerPeriod)-n:] {
		sum += v
	}
	return sum / float64(n)
}

// Run executes an in-process live session for the given number of
// periods and returns its stats: N+1 Nodes over the channel transport,
// the source emitting cfg.Rate fresh segments per period. One ticker
// drives every node: at each period every node plans, then every node
// serves, then every node takes its playback sample. Run builds the
// initial mesh at construction and turns the churn script into
// node-level events: a kill is a node exit, and a join is a new node
// bootstrapping through the source. Run blocks until the session drains.
func Run(ctx context.Context, cfg Config, periods int) Stats {
	s := newSession(cfg)
	defer s.stop()
	return s.run(ctx, periods)
}

// session is an in-process run: the channel transport, the telemetry
// its nodes share, and the running nodes in ascending ID order (the
// source first).
type session struct {
	cfg   Config
	nw    *network
	st    *counters
	space dht.Space
	rng   *sim.RNG
	nodes []*Node
	stats Stats
}

// newSession builds the source and cfg.Peers receivers and wires the
// initial mesh (the RP's initial contact lists): every peer links to
// cfg.Neighbors others, the first M of them to the source so content has
// an exit. Links are installed directly on both sides — this is the
// session's construction, not a protocol message.
func newSession(cfg Config) *session {
	cfg = cfg.resolved()
	s := &session{
		cfg:   cfg,
		nw:    newNetwork(cfg.inboxSlots()),
		st:    &counters{},
		space: dht.NewSpace(ringSpace),
		rng:   sim.DeriveRNG(cfg.Seed, 0x11fe),
	}
	for i := 0; i <= cfg.Peers; i++ {
		s.spawn(0, false)
	}
	connect := func(a, b int) {
		if a == b {
			return
		}
		pa, pb := s.nodes[a].p, s.nodes[b].p
		pa.link(b)
		pb.link(a)
		pa.nbrSeen[b], pb.nbrSeen[a] = 0, 0
	}
	for i := 1; i <= cfg.Peers; i++ {
		if i <= cfg.Neighbors {
			connect(i, 0)
		}
		for len(s.nodes[i].p.links) < cfg.Neighbors {
			connect(i, 1+s.rng.Intn(cfg.Peers))
		}
	}
	return s
}

// spawn registers a node on the channel transport and starts it at the
// given period.
func (s *session) spawn(period int, joining bool) {
	id, inbox := s.nw.register()
	nw := s.nw
	n := &Node{cfg: s.cfg, space: s.space, st: s.st, leave: func() { nw.unregister(id) }}
	n.start(nw, id, inbox, period, joining)
	s.nodes = append(s.nodes, n)
}

// run drives the session's clock.
func (s *session) run(ctx context.Context, periods int) Stats {
	churnAt := make(map[int][]ChurnEvent)
	for _, ev := range s.cfg.Churn {
		churnAt[ev.Period] = append(churnAt[ev.Period], ev)
	}
	ticker := time.NewTicker(s.cfg.Period)
	defer ticker.Stop()
	continuous, playingSamples := 0, 0
	for period := 0; period < periods; period++ {
		if !waitFor(ctx, ticker.C) {
			break
		}
		s.stats.Periods = period + 1
		for _, ev := range churnAt[period] {
			s.churn(period, ev)
		}
		// The simulator's schedule→serve→playback phase order over real
		// messages: every node plans (announce, repair, request, rescue)
		// before any node serves, so a request sent this period is
		// granted this period and a pull hop costs one period of
		// pipeline, not two; playback is sampled after the whole serve
		// pass.
		for _, n := range s.nodes {
			n.p.periodPlan(period)
		}
		for _, n := range s.nodes {
			n.p.periodServe(period)
		}
		periodContinuous, periodPlaying := 0, 0
		for _, n := range s.nodes {
			if sampled, ok := n.play(period); sampled {
				periodPlaying++
				if ok {
					periodContinuous++
				}
			}
		}
		if periodPlaying > 0 {
			s.stats.PerPeriod = append(s.stats.PerPeriod, float64(periodContinuous)/float64(periodPlaying))
			continuous += periodContinuous
			playingSamples += periodPlaying
		}
	}
	s.stop()
	copyOut(&s.stats, s.st, &s.nw.inboxMeter, s.nodes)
	if playingSamples > 0 {
		s.stats.Continuity = float64(continuous) / float64(playingSamples)
	}
	return s.stats
}

// churn applies one scripted event at the start of a period: abrupt
// kills first (node exits — silence, not goodbyes), then newcomers
// joining through the rendezvous point.
func (s *session) churn(period int, ev ChurnEvent) {
	if ev.KillFraction > 0 {
		victims := make([]*Node, len(s.nodes)-1)
		copy(victims, s.nodes[1:])
		s.rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
		kill := min(int(math.Round(ev.KillFraction*float64(len(victims)))), len(victims))
		for _, n := range victims[:kill] {
			n.exit()
		}
		s.nodes = slices.DeleteFunc(s.nodes, func(n *Node) bool { return n.exited })
		s.stats.Killed += kill
	}
	for j := 0; j < ev.Join; j++ {
		s.spawn(period, true)
		s.stats.Joined++
	}
}

// stop ends every running node's inbox loop.
func (s *session) stop() {
	for _, n := range s.nodes {
		n.stop()
	}
}
