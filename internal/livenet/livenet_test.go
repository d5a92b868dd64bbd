package livenet

import (
	"context"
	"testing"
	"time"

	"continustreaming/internal/protocol"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Peers <= 0 || cfg.Neighbors <= 0 || cfg.Period <= 0 || cfg.Rate <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	// The shared-defaults contract: livenet must restate nothing by hand.
	d := protocol.Default()
	if cfg.Neighbors != d.M || cfg.Rate != d.Rate || cfg.BufferSegments != d.BufferSegments ||
		cfg.OutboundPerPeriod != d.OutboundPerPeriod || cfg.SourceOutbound != d.SourceOutbound ||
		cfg.PushHops != d.PushHops || cfg.QueueFactor != d.QueueFactor ||
		cfg.Replicas != d.Replicas || cfg.RescueLimit != d.PrefetchLimit {
		t.Fatalf("livenet defaults drifted from protocol.Default():\nlive %+v\nshared %+v", cfg, d)
	}
}

func TestLiveSessionDeliversAndPlays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 12
	cfg.Period = 5 * time.Millisecond
	cfg.Seed = 3
	st := Run(context.Background(), cfg, 30)
	if st.Periods != 30 {
		t.Fatalf("ran %d periods", st.Periods)
	}
	if st.Delivered == 0 {
		t.Fatal("no segments delivered over the live mesh")
	}
	// The live runtime demonstrates the protocol over real goroutine
	// message passing; at millisecond periods the scheduler's timing
	// assumptions are much tighter than the calibrated simulation, so the
	// bar here is liveness (meaningful fraction of continuous plays), not
	// the paper's calibrated continuity.
	if st.Continuity < 0.1 {
		t.Fatalf("continuity = %v", st.Continuity)
	}
	if st.PushDelivered == 0 {
		t.Fatal("dissemination engine ran but no push deliveries landed")
	}
	// The inbox is sized from the per-period protocol bound, not from the
	// audience; a session must never overflow it.
	if st.TransportDropped != 0 || st.InboxHighWater <= 0 || st.InboxHighWater > int64(cfg.inboxSlots()) {
		t.Fatalf("inbox: %d dropped, high-water %d of %d slots", st.TransportDropped, st.InboxHighWater, cfg.inboxSlots())
	}
}

func TestLiveSessionHonoursContext(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 6
	cfg.Period = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := Run(ctx, cfg, 1000)
	if st.Periods >= 1000 {
		t.Fatal("cancelled session ran to completion")
	}
}

// TestLiveChurnRecovery is the port's acceptance scenario: kill ~30% of
// the peers mid-session and assert that mesh repair replaces the dead
// neighbours (no links to corpses remain when the session drains) and
// that playback continuity recovers in the tail.
func TestLiveChurnRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 30
	cfg.Period = 8 * time.Millisecond
	cfg.Seed = 7
	cfg.Churn = []ChurnEvent{{Period: 24, KillFraction: 0.3}}
	st := Run(context.Background(), cfg, 70)
	if st.Killed == 0 {
		t.Fatal("churn script applied no kills")
	}
	if st.DeadDropped == 0 {
		t.Fatal("no dead neighbour links were dropped — mesh repair never ran")
	}
	if st.EndDeadLinks != 0 {
		t.Fatalf("%d links to dead peers survived the session — repair did not keep up", st.EndDeadLinks)
	}
	// Recovery: the tail (well after the kill) must play substantially
	// continuously again. Locally the tail sits near 1.0; the bar stays
	// below that because wall-clock periods on a loaded CI runner are
	// noisy.
	if tail := st.TailContinuity(10); tail < 0.5 {
		t.Fatalf("tail continuity %.3f after churn; full trace %v", tail, st.PerPeriod)
	}
}

// TestLiveRepairCounterfactual pins why the repair pipeline exists: with
// Repair off, the kill leaves dangling links for the rest of the session.
func TestLiveRepairCounterfactual(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 20
	cfg.Period = 5 * time.Millisecond
	cfg.Seed = 11
	cfg.Repair = false
	cfg.Churn = []ChurnEvent{{Period: 12, KillFraction: 0.3}}
	st := Run(context.Background(), cfg, 30)
	if st.Killed == 0 {
		t.Fatal("churn script applied no kills")
	}
	if st.EndDeadLinks == 0 {
		t.Fatal("repair disabled yet no dead links remained — the counterfactual lost its teeth")
	}
}

// TestLiveJoinsWireUp asserts the rendezvous join path: scripted joiners
// end up connected and the session keeps playing.
func TestLiveJoinsWireUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 12
	cfg.Period = 5 * time.Millisecond
	cfg.Seed = 5
	cfg.Churn = []ChurnEvent{{Period: 10, Join: 4}}
	st := Run(context.Background(), cfg, 30)
	if st.Joined != 4 {
		t.Fatalf("joined %d, want 4", st.Joined)
	}
	if st.Delivered == 0 || st.Continuity <= 0 {
		t.Fatalf("session did not keep playing: %+v", st)
	}
}

// TestLiveMembershipForgetsKilled holds an in-process session to the
// membership rules of the socket path: no peer reads a registry, so a
// killed peer leaves a survivor's view only when its sightings expire.
// A killed ID is still named for DeadAfterPeriods+1 periods by neighbours
// that have not yet dropped its silent link, and the rendezvous point's
// membership sample can pass such a sighting on once more; sightTTL
// periods after each of those, every survivor must have forgotten it —
// in its membership view and its ring view — and no overheard entry may
// be older than sightTTL.
func TestLiveMembershipForgetsKilled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 24
	cfg.Period = 5 * time.Millisecond
	cfg.Seed = 13
	const kill = 12
	cfg.Churn = []ChurnEvent{{Period: kill, KillFraction: 0.3}}
	s := newSession(cfg)
	defer s.stop()
	ttl := s.nodes[0].p.sightTTL()
	st := s.run(context.Background(), kill+cfg.DeadAfterPeriods+1+2*(ttl+1))
	if st.Killed == 0 {
		t.Fatal("churn script applied no kills")
	}
	survivor := make(map[int]bool)
	for _, n := range s.nodes {
		survivor[n.p.id] = true
	}
	var killed []int
	for id := 1; id <= cfg.Peers; id++ {
		if !survivor[id] {
			killed = append(killed, id)
		}
	}
	if len(killed) != st.Killed {
		t.Fatalf("%d peers gone, %d killed", len(killed), st.Killed)
	}
	for _, n := range s.nodes {
		p := n.p
		for _, id := range killed {
			if p.alive(id) {
				t.Errorf("peer %d still counts killed peer %d as alive", p.id, id)
			}
			for _, m := range p.rv {
				if m.id == id {
					t.Errorf("peer %d still places killed peer %d on its ring", p.id, id)
				}
			}
		}
		for id, heard := range p.overheard {
			if p.curPeriod-heard > ttl {
				t.Errorf("peer %d holds overheard peer %d from period %d at period %d (TTL %d)", p.id, id, heard, p.curPeriod, ttl)
			}
		}
	}
}
