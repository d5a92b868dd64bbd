package livenet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
)

// NodeConfig places one peer of a multi-process session: which process
// this is, where it listens, and how it finds the rendezvous point.
// Every other protocol parameter comes from the shared Config, so a
// socket-path node and an in-process peer run the same protocol with
// the same defaults.
type NodeConfig struct {
	// ID is this process's peer identity. The source/RP is ID 0 by
	// protocol convention (the maintenance rules treat node 0 as the
	// root); receivers use any distinct positive IDs.
	ID int
	// Listen is the UDP address to bind ("host:port", port 0 picks a
	// free one; the bound address is available as Node.Addr).
	Listen string
	// Bootstrap is the rendezvous point's address. Empty means this
	// node IS the rendezvous point (which must be the source, ID 0).
	Bootstrap string
	// Source marks the stream emitter.
	Source bool
	// ExitAt, when positive, makes the node fail abruptly at the start
	// of that period: no goodbye, socket closed, process of the kill
	// scenarios. Neighbours discover the silence.
	ExitAt int
	// Shape applies WAN conditions to every datagram this node sends:
	// a ShapeProfile flag string ("loss=2%,latency=50ms,jitter=20ms",
	// see ParseShapeProfile). Empty runs a clean network. Shaping is
	// egress-side, so giving every node of a session the same profile
	// shapes every link once.
	Shape string
	// ShapeSeed seeds the shaper's per-(src,dst) RNG streams: a fixed
	// seed replays the exact same drop/delay sequence, which is what
	// makes a shaped CI failure reproducible. Independent of the
	// protocol Seed so shaping can vary while decisions hold still.
	ShapeSeed uint64
	// Logf, when set, receives progress lines (LogEvery periods apart;
	// default 10).
	Logf     func(format string, args ...any)
	LogEvery int
}

// Node is one peer's runtime: its protocol state, its transport, and the
// steps of a scheduling period. Both runtimes are built from it and
// differ only in the clock. On the socket path one Node runs per process
// (NewNode, then Run), driven by its own ticker; an in-process session
// (the package-level Run) drives N+1 Nodes over the channel transport
// from one shared ticker.
type Node struct {
	cfg   Config
	nc    NodeConfig
	space dht.Space
	st    *counters
	// leave detaches the node from its transport (socket closed, or
	// channel inbox unregistered) so sends to it fail from then on. udp
	// is the socket transport, nil in-process.
	leave func()
	udp   *udpTransport
	// p is built at construction in-process, and inside Run after the
	// bootstrap handshake has synced the session clock on the socket path.
	p       *peer
	loop    sync.WaitGroup
	stopped bool
	exited  bool
	// resyncs counts the clock re-anchor jumps Run took.
	resyncs int
}

// NewNode binds a socket-path node's UDP socket. Splitting construction
// from Run lets the caller learn the bound address (to print, or to hand
// the launcher) before the clock starts.
func NewNode(cfg Config, nc NodeConfig) (*Node, error) {
	if nc.ID < 0 {
		return nil, fmt.Errorf("livenet: negative node ID %d", nc.ID)
	}
	if nc.Source != (nc.ID == 0) {
		return nil, fmt.Errorf("livenet: the source must be node 0 (got id=%d source=%v)", nc.ID, nc.Source)
	}
	if (nc.Bootstrap == "") != nc.Source {
		return nil, fmt.Errorf("livenet: exactly the source runs without a bootstrap address")
	}
	profile, err := ParseShapeProfile(nc.Shape)
	if err != nil {
		return nil, err
	}
	cfg = cfg.resolved()
	tr, err := newUDPTransport(nc.Listen, nc.ID, cfg.inboxSlots())
	if err != nil {
		return nil, err
	}
	tr.setShaper(NewShaper(profile, nc.ShapeSeed, nc.ID))
	if nc.LogEvery <= 0 {
		nc.LogEvery = 10
	}
	return &Node{
		cfg: cfg, nc: nc, space: dht.NewSpace(ringSpace), st: &counters{},
		leave: func() { tr.Close() }, udp: tr,
	}, nil
}

// Addr returns the bound UDP address.
func (n *Node) Addr() string { return n.udp.LocalAddr() }

// Close releases the socket (Run closes it on return; Close is for
// callers that abandon a node before running it).
func (n *Node) Close() error { return n.udp.Close() }

// The join handshake retries its Connect until the RP's ConnectOK
// arrives: up to bootstrapAttempts sends, one per bootstrapTick.
const (
	bootstrapAttempts = 100
	bootstrapTick     = 100 * time.Millisecond
)

// resolved clamps M to the audience and resolves the playback lag once,
// up front: every consumer of the raw field (playback evaluation, ask
// deadlines, warm-up gates, rescue gating) must see the same value.
func (c Config) resolved() Config {
	// A peer can hold at most Peers distinct links (the source plus every
	// other receiver); an M above that would spin the bootstrap wiring
	// forever looking for a new neighbour that cannot exist.
	c.Neighbors = min(c.Neighbors, c.Peers)
	if c.PlaybackLagPeriods <= 0 {
		c.PlaybackLagPeriods = 6
	}
	return c
}

// posFor is the playback position at an absolute session period.
func (c Config) posFor(period int) segment.ID {
	if lag := c.PlaybackLagPeriods; period >= lag {
		return segment.ID((period - lag) * c.Rate)
	}
	return 0
}

// start builds the node's peer on a transport and starts its inbox loop.
// Joiners open their buffer at the playback position of their first
// period.
func (n *Node) start(tr Transport, id int, inbox chan Message, period int, joining bool) {
	n.p = newPeer(tr, id, inbox, n.cfg, n.space, n.st, id == 0, n.cfg.posFor(period), period)
	n.p.joining = joining
	n.loop.Add(1)
	go n.p.loop(&n.loop)
}

// play is the last of a period's three steps, after the plan and serve
// halves (peer.periodPlan, peer.periodServe): it takes the playback
// sample (peer.samplePlayback) and applies ExitAt, which so takes effect
// at the end of period ExitAt-1, before the node would plan period
// ExitAt. Node.Run serves τ/2 after it plans and plays right after it
// serves; Run has every node plan, then every node serve, then every
// node play, so the sample follows the whole serve pass.
func (n *Node) play(period int) (sampled, ok bool) {
	sampled, ok = n.p.samplePlayback(period)
	if n.nc.ExitAt > 0 && period+1 >= n.nc.ExitAt {
		n.exit()
	}
	return sampled, ok
}

// exit is an abrupt failure: the node leaves its transport without a
// goodbye and stops handling messages. Neighbours discover the silence.
// Scripted ExitAt and an in-process session's kills both end here.
func (n *Node) exit() {
	n.exited = true
	n.leave()
	n.stop()
}

// stop ends the inbox loop and waits for it to drain.
func (n *Node) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	close(n.p.stop)
	n.loop.Wait()
}

// copyOut fills st's counters — the one copy-out of both runtimes: the
// protocol counters c and inbox meter m (a socket-path node's own, or the
// set an in-process session's nodes share), plus each node's clock jumps,
// shaper counts and, while it still runs, its links to silent peers.
func copyOut(st *Stats, c *counters, m *inboxMeter, nodes []*Node) {
	st.Delivered = c.delivered.Load()
	st.PushDelivered = c.pushDelivered.Load()
	st.Rescued = c.rescued.Load()
	st.RescueAsked = c.rescueAsked.Load()
	st.QueueServed = c.queueServed.Load()
	st.QueueCarried = c.queueCarried.Load()
	st.DeadDropped = c.deadDropped.Load()
	st.Replaced = c.replaced.Load()
	st.AsksSent = c.asksSent.Load()
	st.AsksReceived = c.asksReceived.Load()
	st.GrantsSent = c.grantsSent.Load()
	st.GrantsEvicted = c.grantsEvicted.Load()
	st.TransportDropped = m.Dropped()
	st.InboxHighWater = m.HighWater()
	for _, n := range nodes {
		if !n.exited {
			st.EndDeadLinks += n.p.deadLinks()
		}
		st.Resyncs += n.resyncs
		if n.udp != nil {
			st.ShapeDropped += n.udp.shaper.Dropped()
			st.ShapeDelayed += n.udp.shaper.Delayed()
		}
	}
}

// Run executes this process's side of the session until the absolute
// session period count is reached (period numbering is shared across
// processes: the source starts at 0 and joiners sync to the RP's clock
// in the bootstrap handshake). The node's own ticker drives the two
// halves of each period, the serve half τ/2 after the plan half, and
// re-syncs the period counter from the stamps peers send. Run blocks
// until the node drains, the scripted ExitAt fires, or ctx is cancelled;
// every return after the handshake reports the node's counters.
func (n *Node) Run(ctx context.Context, periods int) (Stats, error) {
	defer n.udp.Close()
	cfg, nc := n.cfg, n.nc

	start := 0
	if nc.Source {
		n.start(n.udp, 0, n.udp.Inbox(), 0, false)
	} else {
		hello, backlog, err := n.handshake(ctx)
		if err != nil {
			return Stats{}, err
		}
		// The RP's ConnectOK carries its current period (our clock sync),
		// its buffer map, and a membership sample whose addresses the
		// transport has absorbed; handling it as a joiner dials the
		// sample. Messages that raced ahead of it are replayed after.
		start = int(hello.Deadline) + 1
		n.start(n.udp, nc.ID, n.udp.Inbox(), start, true)
		n.p.handle(hello)
		for _, m := range backlog {
			n.p.handle(m)
		}
	}
	defer n.stop()

	ticker := time.NewTicker(cfg.Period)
	defer ticker.Stop()
	stats := Stats{}
	continuous, playingSamples := 0, 0
	for period := start; period < periods && !n.exited; period++ {
		if !waitFor(ctx, ticker.C) {
			break
		}
		// Clock re-sync: if the network's newest period stamp is ahead of
		// this node's counter, the node missed ticks (scheduler stall,
		// loss-delayed handshake, slow period work) — jump forward and
		// re-phase the ticker at the new anchor. In steady state the
		// stamps match the local counter and no jump happens; stamps
		// behind ours (a slower peer's) never move the clock backwards.
		if seen := n.p.clockPeriod(); seen > period {
			stats.BehindPeriods++
			if cfg.Resync {
				seen = min(seen, periods-1)
				if nc.Logf != nil {
					nc.Logf("resync: period %d -> %d", period, seen)
				}
				period = seen
				n.resyncs++
				ticker.Reset(cfg.Period)
			}
		}
		stats.Periods = period + 1 - start

		// Plan at the tick, serve half a period later: the temporal
		// mirror of the in-process two-pass phase order, giving this
		// period's requests — in flight across real sockets — time to
		// reach their suppliers before the serve pass drains them.
		n.p.periodPlan(period)
		half := time.NewTimer(cfg.Period / 2)
		ok := waitFor(ctx, half.C)
		half.Stop()
		if !ok {
			break
		}
		n.p.periodServe(period)
		sampled, played := n.play(period)
		if sampled {
			playingSamples++
			sample := 0.0
			if played {
				continuous++
				sample = 1
			}
			stats.PerPeriod = append(stats.PerPeriod, sample)
		}
		if nc.Logf != nil && period%nc.LogEvery == 0 {
			links, members := n.p.viewSize()
			nc.Logf("period %d: pos=%d links=%d members=%d playing=%v continuous=%v",
				period, cfg.posFor(period), links, members, sampled, played)
		}
	}
	n.stop()
	copyOut(&stats, n.st, &n.udp.inboxMeter, []*Node{n})
	if playingSamples > 0 {
		stats.Continuity = float64(continuous) / float64(playingSamples)
	}
	if nc.Logf != nil {
		nc.Logf("drained: %d deliveries, %d inbox drops", stats.Delivered, stats.TransportDropped)
	}
	return stats, nil
}

// handshake is a joiner's bootstrap: Connect to the RP until its
// ConnectOK arrives, keeping (up to a bound) the messages that race ahead
// of it — the RP links the joiner at once, so its announcements and
// pushes start immediately.
func (n *Node) handshake(ctx context.Context) (hello Message, backlog []Message, err error) {
	if err := n.udp.Learn(0, n.nc.Bootstrap); err != nil {
		return Message{}, nil, err
	}
	for attempt := 1; ; attempt++ {
		n.udp.Send(0, Message{From: n.nc.ID, Kind: msgConnect})
		tick := time.NewTimer(bootstrapTick)
	recv:
		for {
			select {
			case <-ctx.Done():
				tick.Stop()
				return Message{}, nil, ctx.Err()
			case <-tick.C:
				break recv
			case m := <-n.udp.Inbox():
				if m.Kind == msgConnectOK && m.From == 0 {
					tick.Stop()
					return m, backlog, nil
				}
				if len(backlog) < 1024 {
					backlog = append(backlog, m)
				}
			}
		}
		if attempt >= bootstrapAttempts {
			return Message{}, nil, fmt.Errorf("livenet: no ConnectOK from %s after %d attempts", n.nc.Bootstrap, attempt)
		}
	}
}

// waitFor blocks until c fires (true) or ctx is cancelled (false).
func waitFor(ctx context.Context, c <-chan time.Time) bool {
	select {
	case <-ctx.Done():
		return false
	case <-c:
		return ctx.Err() == nil
	}
}
