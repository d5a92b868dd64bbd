// Package livenet runs the streaming protocol over real message passing:
// one goroutine per peer, channels as links, and a wall-clock ticker
// driving scheduling periods (scaled down so demos finish in seconds). It
// is the repro of the paper's planned PlanetLab deployment scaled to one
// process — and it drives the same transport-agnostic decision core
// (internal/protocol) as the deterministic simulator: mesh repair under
// churn (PlanRewire + GossipPicks), DHT-backed rescue of urgent holes
// (BackupResponsible + the urgent-line prediction), fresh-segment push
// (PlanPush), pull scheduling over the word-parallel candidate enumerator
// (Candidates) and supplier-side EDF serving with bounded carry queues
// and the shared rarity view (PlanServe + RarityView). Only the input
// assembly and the transport differ; the decisions are the shared code
// paths, which is what the sim↔livenet parity tests pin. Neighbour maps
// lag by up to a period here, so they take the enumerator's shifting
// path where the simulator's aligned maps are read in place; suppliers
// come out in ascending neighbour order in both runtimes.
package livenet

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
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
	// Killed and Joined count scripted churn events applied.
	Killed int
	Joined int
	// EndDeadLinks counts links still pointing at dead peers when the
	// session drained — zero when mesh repair kept up with the churn.
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
	// inbox was full (every peer's on the in-process channel path, the
	// node's own on the socket path), and InboxHighWater is the deepest
	// inbox backlog a delivery left behind, the margin the inbox size
	// (Config.inboxSlots) is judged against. ShapeDropped counts
	// datagrams the traffic shaper consumed as injected link loss,
	// ShapeDelayed datagrams it released late (latency, jitter or
	// bandwidth queueing). Resyncs counts clock re-anchor jumps taken
	// (see Config.Resync). The shaper and re-sync counters are zero on
	// the in-process channel path.
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

// Run executes a live session for the given number of periods and returns
// its stats. The source emits cfg.Rate fresh segments per period and
// push-seeds them; peers exchange maps with piggybacked membership
// gossip, schedule with the paper's urgency+rarity policy, pull over
// channels, serve EDF with carry queues, repair their meshes, and rescue
// urgent holes from the backup ring. Run blocks until the session drains.
func Run(ctx context.Context, cfg Config, periods int) Stats {
	// A peer can hold at most cfg.Peers distinct links (the source plus
	// every other receiver); an M above that would spin the bootstrap
	// wiring forever looking for a new neighbour that cannot exist.
	if cfg.Neighbors > cfg.Peers {
		cfg.Neighbors = cfg.Peers
	}
	// Resolve the lag default once, up front: every consumer of the raw
	// field (playback evaluation, ask deadlines, warm-up gates, rescue
	// gating) must see the same value.
	cfg.PlaybackLagPeriods = cfg.lagPeriods()
	space := dht.NewSpace(ringSpace)
	nw := newNetwork(cfg.inboxSlots())
	st := &counters{}
	peers := make(map[int]*peer)
	var wg sync.WaitGroup
	spawn := func(isSource bool, openAt segment.ID, joinPeriod int) *peer {
		id, inbox := nw.register()
		p := newPeer(nw, id, inbox, cfg, space, st, isSource, openAt, joinPeriod)
		if isSource {
			// Driver mode's RP candidate pool is the registry oracle; the
			// socket path replaces it with the peer's sighting history
			// (see RunNode).
			p.sample = func(max, exclude int) []int {
				return nw.sample(p.rng, max, exclude)
			}
		}
		peers[p.id] = p
		wg.Add(1)
		go p.loop(&wg)
		return p
	}
	src := spawn(true, 0, 0)
	for i := 0; i < cfg.Peers; i++ {
		spawn(false, 0, 0)
	}
	// Bootstrap wiring (the RP's initial contact lists): every peer links
	// to cfg.Neighbors others, the first M of them to the source so
	// content has an exit. Links are installed directly on both sides —
	// this is the session's construction, not a protocol message.
	rng := sim.DeriveRNG(cfg.Seed, 0x11fe)
	connect := func(a, b int) {
		if a == b {
			return
		}
		pa, pb := peers[a], peers[b]
		pa.link(b)
		pb.link(a)
		pa.nbrSeen[b], pb.nbrSeen[a] = 0, 0
	}
	for i := 1; i <= cfg.Peers; i++ {
		if i <= cfg.Neighbors {
			connect(i, src.id)
		}
		for len(peers[i].links) < cfg.Neighbors {
			connect(i, 1+rng.Intn(cfg.Peers))
		}
	}

	churnAt := make(map[int][]ChurnEvent)
	for _, ev := range cfg.Churn {
		churnAt[ev.Period] = append(churnAt[ev.Period], ev)
	}

	ticker := time.NewTicker(cfg.Period)
	defer ticker.Stop()
	stats := Stats{}
	continuous, playingSamples := 0, 0
	pos := segment.ID(0)
	lag := cfg.lagPeriods()
	ran := 0
	for period := 0; period < periods; period++ {
		select {
		case <-ctx.Done():
		case <-ticker.C:
		}
		if ctx.Err() != nil {
			break
		}
		ran = period + 1

		// Scripted churn: abrupt kills first (silence, not goodbyes),
		// then rendezvous-path joins.
		for _, ev := range churnAt[period] {
			if ev.KillFraction > 0 {
				var victims []int
				for id := range peers {
					if id != src.id {
						victims = append(victims, id)
					}
				}
				sort.Ints(victims)
				rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
				kill := int(math.Round(ev.KillFraction * float64(len(victims))))
				for _, id := range victims[:min(kill, len(victims))] {
					nw.unregister(id)
					close(peers[id].stop)
					delete(peers, id)
					stats.Killed++
				}
			}
			for j := 0; j < ev.Join; j++ {
				np := spawn(false, pos, period)
				for _, c := range nw.sample(rng, cfg.Neighbors+2, np.id) {
					nw.Send(c, Message{From: np.id, Kind: msgConnect})
				}
				stats.Joined++
			}
		}

		members := nw.members()
		memberSet := make(map[int]bool, len(members))
		for _, id := range members {
			memberSet[id] = true
		}
		rv := newRingView(space, members)

		// Source ingests this period's fresh segments.
		src.mu.Lock()
		for s := segment.ID(period * cfg.Rate); s < segment.ID((period+1)*cfg.Rate); s++ {
			src.buf.Insert(s)
		}
		src.mu.Unlock()

		if period >= lag {
			pos = segment.ID((period - lag) * cfg.Rate)
		}
		order := make([]int, 0, len(peers))
		for id := range peers {
			order = append(order, id)
		}
		sort.Ints(order)
		// Two passes per period, the simulator's schedule→serve phase
		// order over real messages: every peer plans (announce, repair,
		// request, rescue) before any peer serves, so a request sent
		// this period is granted this period and a pull hop costs one
		// period of pipeline, not two.
		for _, id := range order {
			peers[id].periodPlan(period, pos, rv, memberSet)
		}
		for _, id := range order {
			peers[id].periodServe(period, memberSet)
		}

		// Playback bookkeeping after the pipeline warm-up.
		if period >= lag {
			win := segment.Window{Lo: pos, Hi: pos + segment.ID(cfg.Rate)}
			periodContinuous, periodPlaying := 0, 0
			for _, id := range order {
				p := peers[id]
				if p.isSource {
					continue
				}
				p.mu.Lock()
				ok := p.buf.HasAll(win)
				p.missedLast = !ok
				if ok {
					p.missStreak = 0
				} else {
					p.missStreak++
				}
				p.mu.Unlock()
				periodPlaying++
				playingSamples++
				if ok {
					periodContinuous++
					continuous++
				}
			}
			if periodPlaying > 0 {
				stats.PerPeriod = append(stats.PerPeriod, float64(periodContinuous)/float64(periodPlaying))
			}
		}
	}
	for _, p := range peers {
		close(p.stop)
	}
	wg.Wait()

	stats.Periods = ran
	stats.Delivered = st.delivered.Load()
	stats.PushDelivered = st.pushDelivered.Load()
	stats.Rescued = st.rescued.Load()
	stats.RescueAsked = st.rescueAsked.Load()
	stats.QueueServed = st.queueServed.Load()
	stats.QueueCarried = st.queueCarried.Load()
	stats.DeadDropped = st.deadDropped.Load()
	stats.Replaced = st.replaced.Load()
	stats.AsksSent = st.asksSent.Load()
	stats.AsksReceived = st.asksReceived.Load()
	stats.GrantsSent = st.grantsSent.Load()
	stats.GrantsEvicted = st.grantsEvicted.Load()
	stats.TransportDropped = nw.Dropped()
	stats.InboxHighWater = nw.HighWater()
	if playingSamples > 0 {
		stats.Continuity = float64(continuous) / float64(playingSamples)
	}
	for _, p := range peers {
		for nb := range p.links {
			if !nw.alive(nb) {
				stats.EndDeadLinks++
			}
		}
	}
	return stats
}
