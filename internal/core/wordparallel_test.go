package core

import (
	"fmt"
	"slices"
	"testing"

	"continustreaming/internal/buffer"
	"continustreaming/internal/churn"
	"continustreaming/internal/metrics"
	"continustreaming/internal/overlay"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// TestCandidatesWordMatchesOracle differentially tests the word-parallel
// candidate enumeration against candidatesForSlow, the window-agnostic
// per-ID oracle that shares no code with the word path. A churn-enabled
// world supplies realistic inputs round after round: partially filled
// buffers, dead neighbours, pending gossip and pre-fetch marks from
// earlier scheduling — every filter the fast path folds into word
// operations. Every map must take the aliasing path: the round pipeline's
// windows all open at the playback position.
func TestCandidatesWordMatchesOracle(t *testing.T) {
	cfg := DefaultConfig(120)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Seed = 7
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	var ar roundArena
	compared := 0
	for round := 0; round < cfg.PlaybackDelayRounds+8; round++ {
		engine.Run(1)
		w.round = engine.Clock().Round()
		w.beginRound()
		var sample metrics.RoundSample
		snaps := w.exchangePhase(&sample)
		index := w.buildIndex()
		pos := w.playbackPos(w.round)
		fetchWin := segment.Window{Lo: pos, Hi: w.fetchEdge(w.round)}
		for _, id := range w.order {
			n := w.nodes[id]
			if n == nil || n.IsSource {
				continue
			}
			fast := w.candidatesFor(&ar, n, index, snaps, fetchWin, w.round)
			slow := w.candidatesForSlow(n, index, snaps, fetchWin, w.round)
			compared += sameCandidates(t, fmt.Sprintf("round %d node %d", w.round, id), fast, slow)
		}
	}
	if compared == 0 {
		t.Fatal("no candidates were ever enumerated; the differential test exercised nothing")
	}
	if got := ar.cand.Shifted(); got != 0 {
		t.Fatalf("%d maps left the aliasing path; every round-pipeline window opens at the playback position", got)
	}
}

// TestFillCandidatesScalarMatchesWord pins the enumerator's bit-sliced fill
// against the per-ID oracle on neighbourhoods wider than 63 maps, where
// holder counts need more than six counter planes: every node's real
// neighbour snapshots are repeated under fresh IDs until 70 maps advertise
// into the window.
func TestFillCandidatesScalarMatchesWord(t *testing.T) {
	cfg := DefaultConfig(80)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Seed = 11
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	var sc protocol.CandidateScratch
	compared := 0
	for round := 0; round < cfg.PlaybackDelayRounds+8; round++ {
		engine.Run(1)
		w.round = engine.Clock().Round()
		w.beginRound()
		var sample metrics.RoundSample
		snaps := w.exchangePhase(&sample)
		index := w.buildIndex()
		pos := w.playbackPos(w.round)
		win := segment.Window{Lo: pos, Hi: pos + segment.ID(cfg.BufferSegments)}
		if edge := w.fetchEdge(w.round); edge < win.Hi {
			win.Hi = edge
		}
		for _, id := range w.order {
			n := w.nodes[id]
			if n == nil || n.IsSource || len(n.nbrs) == 0 {
				continue
			}
			var wide []protocol.NeighbourMap
			for len(wide) < 70 {
				for _, nb := range n.nbrs {
					if j := index[nb]; j >= 0 {
						wide = append(wide, protocol.NeighbourMap{ID: overlay.NodeID(len(wide)), Rate: float64(len(wide)), Map: snaps[j]})
					}
				}
				if len(wide) == 0 {
					break
				}
			}
			fresh := func(id segment.ID) bool { return n.Fresh(id, w.round) }
			word := protocol.Candidates(&sc, win, n.Buf.View(), wide, func(id segment.ID) bool { return n.pending(id, w.round) })
			scalar := scanCandidates(win, wide, fresh)
			compared += sameCandidates(t, fmt.Sprintf("round %d node %d", w.round, id), word, scalar)
		}
	}
	if compared == 0 {
		t.Fatal("no candidates found; the fill comparison exercised nothing")
	}
}

// candidatesForSlow is the per-ID enumeration oracle over the round's
// snapshots: every live neighbour's window is scanned ID by ID.
func (w *World) candidatesForSlow(n *Node, index []int32, snaps []buffer.Map, win segment.Window, round int) []scheduler.Candidate {
	if hi := win.Lo + segment.ID(n.Buf.Size()); win.Hi > hi {
		win.Hi = hi
	}
	var nbrs []protocol.NeighbourMap
	for _, nb := range n.nbrs {
		if j := index[nb]; j >= 0 {
			nbrs = append(nbrs, protocol.NeighbourMap{ID: nb, Rate: n.Ctrl.Rate(int(nb)), Map: snaps[j]})
		}
	}
	return scanCandidates(win, nbrs, func(id segment.ID) bool { return n.Fresh(id, round) })
}

// scanCandidates collects, ID by ID, every segment of win some map
// advertises and fresh accepts, with suppliers in nbrs order.
func scanCandidates(win segment.Window, nbrs []protocol.NeighbourMap, fresh func(segment.ID) bool) []scheduler.Candidate {
	found := make(map[segment.ID][]scheduler.Supplier)
	var ids []segment.ID
	for _, nb := range nbrs {
		wn := win.Intersect(nb.Map.Window())
		for id := wn.Lo; id < wn.Hi; id++ {
			if !nb.Map.Has(id) || !fresh(id) {
				continue
			}
			pft, _ := nb.Map.PositionFromTail(id)
			if found[id] == nil {
				ids = append(ids, id)
			}
			found[id] = append(found[id], scheduler.Supplier{Node: int(nb.ID), Rate: nb.Rate, PositionFromTail: pft})
		}
	}
	slices.Sort(ids)
	cands := make([]scheduler.Candidate, 0, len(ids))
	for _, id := range ids {
		cands = append(cands, scheduler.Candidate{ID: id, Suppliers: found[id]})
	}
	return cands
}

// sameCandidates fails the test unless got matches want entry for entry,
// and returns how many candidates it compared.
func sameCandidates(t *testing.T, where string, got, want []scheduler.Candidate) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: enumerated %d candidates, oracle %d", where, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !slices.Equal(got[i].Suppliers, want[i].Suppliers) {
			t.Fatalf("%s cand %d: %+v, oracle %+v", where, i, got[i], want[i])
		}
	}
	return len(want)
}

// TestScheduleSeamTakesAlignedPath asserts that the schedule benchmark
// seam times the code Step runs: after warm-up rounds and after seam
// calls alike, no candidate enumeration left the aliasing path, and the
// seam schedules real work.
func TestScheduleSeamTakesAlignedPath(t *testing.T) {
	cfg := DefaultConfig(300)
	cfg.Profile = ProfileContinuStreaming()
	cfg.Churn = churn.DefaultConfig()
	cfg.Seed = 3
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(w, cfg.Tau)
	engine.Run(cfg.PlaybackDelayRounds + 2)
	shifted := func() int {
		total := 0
		for s := range w.arenas {
			total += w.arenas[s].cand.Shifted()
		}
		return total
	}
	if got := shifted(); got != 0 {
		t.Fatalf("Step shifted %d maps; the round pipeline's windows must all alias", got)
	}
	first := w.BenchSchedulePhase(engine.Clock())
	if first == 0 {
		t.Fatal("the seam scheduled no requests")
	}
	if again := w.BenchSchedulePhase(engine.Clock()); again != first {
		t.Fatalf("repeat seam call scheduled %d requests, first %d", again, first)
	}
	if got := shifted(); got != 0 {
		t.Fatalf("the seam shifted %d maps; it must take Step's aliasing path", got)
	}
}
