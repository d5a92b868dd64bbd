package core

import (
	"slices"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// pushBudget is how much of a node's outbound the push phase may spend in
// one round: one period's worth (O), leaving the second period of the
// 2·O backlog horizon for pull serving. The spend is charged against the
// shared outbound ledger, so push, gossip serving and pre-fetch grants
// together never exceed the horizons the ledger invariants pin.
func pushBudget(n *Node) int { return n.Rates.Out }

// pushPhase eagerly forwards this round's freshly generated segments
// along mesh edges for their first PushHops hops — the dissemination
// engine's answer to the depth gap: a pure-pull epidemic starting from
// one copy needs more doubling rounds than the playback delay allows at
// 8000+ nodes, while a push-seeded one starts several generations deep.
// Hop 1 is the source spraying its connected neighbours; hop h+1 is every
// hop-h receiver forwarding what it just received. The per-pusher send
// plan is protocol.PlanPushMask; this driver owns the sharding, the ledgers
// and the wire-time bookkeeping.
//
// Each hop runs as a sharded map/reduce: pushers are partitioned by the
// supplier-ownership shard, each shard plans its pushers' sends (pure
// reads of target buffers) and charges its own outbound-ledger partition,
// and the sends are applied sequentially in shard order afterwards, so
// the phase is bit-identical at any worker count. Two same-hop pushers in
// different shards may race a copy to the same target; the loser is
// counted as a push duplicate, exactly the redundancy a real eager-push
// mesh pays.
func (w *World) pushPhase(clock *sim.Clock, sample *metrics.RoundSample) {
	hops := w.cfg.PushHops
	if hops <= 0 || !w.cfg.Profile.Engine {
		return
	}
	lo := w.liveEdge(w.round)
	if lo < 0 {
		lo = 0
	}
	hi := w.fetchEdge(w.round)
	src := w.nodes[w.source]
	fresh := make([]segment.ID, 0, int(hi-lo))
	for id := lo; id < hi; id++ {
		if src.Buf.Has(id) {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return
	}
	start := clock.Now()
	end := clock.RoundEnd()
	segBits := w.cfg.Stream.BitsPerSegment
	// Per-pusher send serialization across the whole phase: a pusher's
	// k-th copy occupies its outbound wire for k+1 segment times, the
	// same PerSegment accounting the pull and pre-fetch paths use.
	sent := make(map[overlay.NodeID]int)
	// Each frontier entry carries the instant its holder actually
	// received the segment; hop h+1 sends anchor there, so no node ever
	// forwards a copy at a simulated time before it arrived.
	type pushSeg struct {
		id      segment.ID
		readyAt sim.Time
	}
	frontier := make(map[overlay.NodeID][]pushSeg, 1)
	for _, id := range fresh {
		frontier[w.source] = append(frontier[w.source], pushSeg{id: id, readyAt: start})
	}
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		pushers := make([]overlay.NodeID, 0, len(frontier))
		for id := range frontier {
			pushers = append(pushers, id)
		}
		slices.Sort(pushers)
		byShard := make([][]overlay.NodeID, phaseShards)
		for _, id := range pushers {
			s := w.shardOf(id)
			byShard[s] = append(byShard[s], id)
		}
		seed := w.phaseSeed(phasePush ^ uint64(hop)<<20)
		planned := make([][]protocol.Send, phaseShards)
		sim.MapReduce(w.pool, phaseShards, seed,
			func(s int, _ *sim.RNG) []protocol.Send {
				var out []protocol.Send
				for _, id := range byShard[s] {
					n := w.nodes[id]
					budget := pushBudget(n) - w.dissem.PushSpent(s, id)
					if budget <= 0 {
						continue
					}
					segs := make([]segment.ID, len(frontier[id]))
					for i, ps := range frontier[id] {
						segs[i] = ps.id
					}
					// Salting the plan seed per pusher decorrelates target
					// orders, so pushers sharing neighbours spray different
					// prefixes instead of racing to the same targets.
					//
					// The availability probe is one lack row per
					// neighbour over the fresh window. pushReceived lags the
					// current hop's own sends (cross-shard state, constant
					// while the hop plans), which only lets the final hop
					// overshoot by the in-flight few — counted on arrival
					// below.
					planSeed := seed ^ uint64(id)*0x9e3779b97f4a7c15
					sends := protocol.PlanPushMask(planSeed, id, lo, int(hi-lo), segs, w.neighborsOf(id),
						func(to overlay.NodeID, row []uint64) {
							t := w.nodes[to]
							// A dead or inbound-saturated target accepts
							// nothing this hop.
							if t == nil || t.pushReceived >= t.Rates.In {
								clear(row)
								return
							}
							t.Buf.View().MissingWords(row, segment.Window{Lo: lo, Hi: hi})
						}, budget)
					if len(sends) == 0 {
						continue
					}
					// The planning shard owns both ledgers for its pushers.
					w.dissem.ChargePush(s, id, len(sends))
					//continulint:shardcapture dense ledger indexed by pusher ID; shard s owns exactly the IDs with shardOf(id)==s, so writes are disjoint
					w.outUsed[id] += int32(len(sends))
					out = append(out, sends...)
				}
				return out
			},
			func(s int, out []protocol.Send) { planned[s] = out })

		// readyAt finds when a pusher obtained a segment by scanning its
		// frontier entry — a handful of fresh segments, cheaper than a
		// nested map rebuilt every hop.
		readyAt := func(from overlay.NodeID, id segment.ID) sim.Time {
			for _, ps := range frontier[from] {
				if ps.id == id {
					return ps.readyAt
				}
			}
			return start
		}
		next := make(map[overlay.NodeID][]pushSeg)
		for _, sends := range planned {
			for _, snd := range sends {
				t := w.nodes[snd.To]
				if t == nil {
					continue
				}
				// Every transmitted push occupies both links — the
				// pusher's wire slot and the target's inbound —
				// duplicates included; the pull scheduler's budget below
				// shrinks accordingly.
				sent[snd.From]++
				t.pushReceived++
				wire := sim.Time(sent[snd.From]) * bandwidth.PerSegment(w.nodes[snd.From].Rates.Out, w.cfg.Tau)
				at := readyAt(snd.From, snd.ID) + wire + w.Latency(snd.From, snd.To)
				if at > end {
					// The pusher's wire ran past the round boundary: the
					// copy is an ordinary transfer in flight, applied,
					// counted and advertised only when it lands — same
					// rule as every late pull or pre-fetch delivery.
					// Landing it now would let the next hop (and this
					// round's snapshots) see a segment before it arrived.
					w.inflight.Push(at, delivery{to: snd.To, from: snd.From, id: snd.ID, at: at})
					continue
				}
				sample.DataBits += segBits
				sample.Deliveries++
				if !t.receive(snd.ID, at) {
					sample.PushDuplicates++
					continue
				}
				sample.PushDeliveries++
				t.Ctrl.ObserveDelivery(int(snd.From), (at - start).Seconds())
				t.maybeBackup(w.space, snd.ID, w.cfg.Replicas)
				next[snd.To] = append(next[snd.To], pushSeg{id: snd.ID, readyAt: at})
			}
		}
		frontier = next
	}
}
