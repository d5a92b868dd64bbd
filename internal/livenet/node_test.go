package livenet

import (
	"context"
	"sync"
	"testing"
	"time"
)

// startUDPSession spawns a source plus n receiver nodes, every one on
// its own UDP socket on loopback — the multi-process topology inside
// one test process. exitAt scripts ExitAt per receiver ID (nil for none).
// It returns the per-node cancel funcs (abrupt kills) and a collector
// that waits for all nodes and hands back the stats every receiver's Run
// returned.
func startUDPSession(t *testing.T, cfg Config, n, periods int, exitAt map[int]int) (cancels []context.CancelFunc, wait func() map[int]Stats) {
	t.Helper()
	src, err := NewNode(cfg, NodeConfig{ID: 0, Listen: "127.0.0.1:0", Source: true})
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	rpAddr := src.Addr()
	ctx, cancelAll := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancelAll)

	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[int]Stats)
	run := func(id int, node *Node, nctx context.Context) {
		defer wg.Done()
		st, err := node.Run(nctx, periods)
		if err != nil {
			return // handshake failed or cancelled before the loop
		}
		if id != 0 {
			mu.Lock()
			out[id] = st
			mu.Unlock()
		}
	}
	wg.Add(1)
	srcCtx, srcCancel := context.WithCancel(ctx)
	cancels = append(cancels, srcCancel)
	go run(0, src, srcCtx)
	for i := 1; i <= n; i++ {
		node, err := NewNode(cfg, NodeConfig{ID: i, Listen: "127.0.0.1:0", Bootstrap: rpAddr, ExitAt: exitAt[i]})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nctx, ncancel := context.WithCancel(ctx)
		cancels = append(cancels, ncancel)
		wg.Add(1)
		go run(i, node, nctx)
	}
	return cancels, func() map[int]Stats {
		wg.Wait()
		return out
	}
}

// TestUDPSessionDeliversAndPlays runs a whole session over real UDP
// sockets on loopback: bootstrap handshake against the RP, membership
// from gossip and the peer's own contacts, routed ring rescue — the
// socket path end to end, minus the process boundary.
func TestUDPSessionDeliversAndPlays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 8
	cfg.Period = 20 * time.Millisecond
	cfg.Seed = 17
	_, wait := startUDPSession(t, cfg, cfg.Peers, 40, nil)
	stats := wait()
	if len(stats) != cfg.Peers {
		t.Fatalf("%d of %d receivers reported", len(stats), cfg.Peers)
	}
	var delivered, pushed int64
	cont := 0.0
	for _, st := range stats {
		delivered += st.Delivered
		pushed += st.PushDelivered
		cont += st.Continuity
	}
	cont /= float64(len(stats))
	if delivered == 0 {
		t.Fatal("no segments crossed the UDP sockets")
	}
	if pushed == 0 {
		t.Fatal("no push deliveries over UDP — the engine is not running on the socket path")
	}
	// Liveness bar, not the calibrated continuity: 20 ms periods over
	// loopback on a loaded CI runner are noisy.
	if cont < 0.2 {
		t.Fatalf("mean continuity %.3f over UDP", cont)
	}
}

// TestUDPSessionKillRecovery is the acceptance scenario at test scale:
// kill a third of the receivers mid-session (context cancel: socket
// closed, no goodbye) and require the survivors' recovered tail to
// play continuously again.
func TestUDPSessionKillRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 9
	cfg.Period = 20 * time.Millisecond
	cfg.Seed = 23
	periods := 70
	cancels, wait := startUDPSession(t, cfg, cfg.Peers, periods, nil)
	time.Sleep(time.Duration(periods/2) * cfg.Period)
	for _, i := range []int{1, 2, 3} { // a third of the audience
		cancels[i]()
	}
	stats := wait()
	killed := map[int]bool{1: true, 2: true, 3: true}
	tail, survivors := 0.0, 0
	for id, st := range stats {
		if killed[id] {
			continue
		}
		survivors++
		tail += st.TailContinuity(15)
		if st.EndDeadLinks > 0 {
			t.Errorf("survivor %d still held %d links to dead peers", id, st.EndDeadLinks)
		}
	}
	if survivors != cfg.Peers-3 {
		t.Fatalf("%d survivors reported, want %d", survivors, cfg.Peers-3)
	}
	tail /= float64(survivors)
	// Locally the recovered tail sits near 1.0; the bar leaves room for
	// CI wall-clock noise. examples/multiproc asserts the paper-level
	// 0.9 with real process kills.
	if tail < 0.5 {
		t.Fatalf("survivor tail continuity %.3f after killing a third over UDP", tail)
	}
}

// TestUDPNodeExitReportsCounters runs a receiver with a scripted ExitAt
// and requires its Stats to carry what it did before failing: the
// periods it ran, its deliveries, its inbox meter and its continuity — the same
// copy-out a node that runs to completion reports.
func TestUDPNodeExitReportsCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Peers = 4
	cfg.Period = 20 * time.Millisecond
	cfg.Seed = 29
	const periods, exitAt = 40, 24
	_, wait := startUDPSession(t, cfg, cfg.Peers, periods, map[int]int{1: exitAt})
	stats := wait()
	st, ok := stats[1]
	if !ok {
		t.Fatal("the exiting node reported no stats")
	}
	if st.Periods <= cfg.PlaybackLagPeriods || st.Periods >= periods {
		t.Fatalf("exiting node ran %d periods, want fewer than %d", st.Periods, periods)
	}
	if st.Delivered == 0 || st.PushDelivered == 0 || st.InboxHighWater == 0 || len(st.PerPeriod) == 0 || st.Continuity == 0 {
		t.Fatalf("exiting node reported empty counters: %+v", st)
	}
	if got := stats[2].Periods; got <= st.Periods {
		t.Fatalf("a surviving node ran %d periods, no more than the exiting node's %d", got, st.Periods)
	}
}
