package livenet

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"continustreaming/internal/bandwidth"
	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/overlay"
	"continustreaming/internal/prefetch"
	"continustreaming/internal/protocol"
	"continustreaming/internal/scheduler"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// counters aggregates session telemetry across all peer goroutines.
type counters struct {
	delivered     atomic.Int64
	pushDelivered atomic.Int64
	rescued       atomic.Int64
	rescueAsked   atomic.Int64
	queueServed   atomic.Int64
	queueCarried  atomic.Int64
	replaced      atomic.Int64
	deadDropped   atomic.Int64
	asksSent      atomic.Int64
	asksReceived  atomic.Int64
	grantsSent    atomic.Int64
	grantsEvicted atomic.Int64
}

// peer is one goroutine's protocol state: the same per-node architecture
// the simulator hosts (buffer, rate controller, urgent-line α, VoD
// backup), driven by messages instead of phases. All mutable state is
// guarded by mu; the inbox goroutine and the driver's per-period call
// both take it.
type peer struct {
	id       int
	ring     dht.ID
	isSource bool
	tr       Transport
	cfg      Config
	space    dht.Space
	st       *counters
	inbox    chan Message
	stop     chan struct{}
	rng      *sim.RNG
	// sample draws up to max live peer IDs (excluding the given one and
	// the peer itself) for the RP candidate pool and bootstrap replies.
	// Driver mode backs it with the registry; node mode with the peer's
	// own sighting history. Nil on peers that never act as RP.
	sample func(max, exclude int) []int
	// rpServer makes this peer answer msgConnect as a rendezvous point:
	// the ConnectOK carries a membership sample and the current period,
	// the bootstrap handshake a socket-path joiner syncs from. Only set
	// in node mode (the driver wires in-process joins directly).
	rpServer bool
	// nodeMode marks a socket-path peer: gossip arrives from an open
	// socket there, so sighting-derived state is pruned by TTL each
	// period. Driver-mode peers skip the overheard pruning to keep the
	// in-process candidate pools exactly as before the seam.
	nodeMode bool

	mu     sync.Mutex
	buf    *buffer.Buffer
	backup *dht.Store
	// links is the connected-neighbour set; change it only through link
	// and unlink, which keep nbrs, its ascending form, current.
	links     map[int]bool
	nbrs      []overlay.NodeID
	nbrsStale bool
	nbrMaps   map[int]buffer.Map
	nbrSeen   map[int]int
	// overheard is the adoption candidate pool: peer IDs learned from
	// piggybacked membership gossip, stamped with the period heard.
	overheard map[int]int
	// sighted stamps every peer ID this peer has evidence of — a message
	// received from it, or gossip naming it — with the period of the last
	// sighting. Node mode derives its membership view from it (there is
	// no registry oracle across processes); driver mode maintains it too
	// but never reads it, keeping the two paths' message handling
	// identical.
	sighted map[int]int
	ctrl    *bandwidth.Controller
	alpha   *prefetch.Alpha
	// pending / rescuePending map in-flight pulls and rescues to their
	// expiry period, after which the peer re-asks.
	pending       map[segment.ID]int
	rescuePending map[segment.ID]int
	// carry is the supplier-side bounded carry queue; asks the fresh
	// requests accumulated since the last serve.
	carry []protocol.Request
	asks  []protocol.Ask
	// requested holds the previous period's per-supplier ask counts.
	// A livenet supplier serves at its next period boundary, so a
	// request's data arrives one period after the ask; crediting the
	// rate controller on the period the reply is due keeps requests and
	// deliveries paired the way the BSP simulator pairs them — without
	// this, every ask looks unanswered in its own period and the service
	// estimates decay until the scheduler deems every supplier too slow
	// to bother asking (measured: pull traffic collapses to zero).
	requested []supplierAsks

	// clockSeen is the highest period stamp heard from any peer (wire
	// v2 stamps every message with the sender's clock). Node mode
	// re-anchors its period counter to it at every tick — the
	// continuous clock re-sync replacing trust in the one-shot
	// bootstrap handshake. Resyncs counts the jumps taken.
	clockSeen int
	resyncs   int

	curPeriod int
	// periodAt is the wall-clock instant of the current period's plan
	// tick — the anchor ObserveDelivery offsets are measured from, so
	// the rate controller sees true arrival offsets (the simulator's
	// (d.at - now) in period fractions), not per-period counts.
	periodAt     time.Time
	pos          segment.ID
	rv           ringView
	pushSpent    int
	rescueSpent  int
	pushReceived int
	overdue      int
	repeated     int
	missedLast   bool
	missStreak   int
	lastReplace  int

	// view and rewireScratch are the peer's reusable maintenance seam:
	// the view provider PlanRewire consults past its fast path, and the
	// scratch its pools and intents are carved from. Both are touched
	// only from the peer's own goroutine.
	view          peerView
	rewireScratch protocol.RewireScratch

	// serveScratch backs PlanServe's request staging across periods; the
	// granted slice it aliases is consumed before the next period plans.
	serveScratch protocol.ServeScratch

	// The pull path's reusable scratch: the candidate enumerator's words
	// and arenas with its neighbour-map staging, the scheduling policy's
	// request arena, and the serve pass's rarity view.
	cand     protocol.CandidateScratch
	candNbrs []protocol.NeighbourMap
	sched    scheduler.Scratch
	rarity   protocol.RarityView
}

// supplierAsks is how many requests one supplier received from this peer
// in a period.
type supplierAsks struct {
	supplier, count int
}

// peerView implements protocol.ViewProvider over what this peer learned
// through its channels: supply estimates from the rate controller, the
// gossip-fed overheard pool, the ring view's clockwise successors, and —
// for the source — the RP membership sample. members is set for the
// duration of one maintainMesh call.
type peerView struct {
	p       *peer
	members map[int]bool
}

func (v *peerView) AppendNeighbors(dst []protocol.NeighborSupply) []protocol.NeighborSupply {
	p := v.p
	for _, nb := range p.neighbourNodeIDs() {
		s := protocol.NeighborSupply{ID: nb, Known: p.ctrl.Known(int(nb))}
		if s.Known {
			s.Supply = p.ctrl.Supply(int(nb))
		}
		dst = append(dst, s)
	}
	return dst
}

func (v *peerView) AppendOverheard(dst []protocol.CandidateSource) []protocol.CandidateSource {
	p := v.p
	for id := range p.overheard {
		// Livenet links have no measured latency; a per-pair hash stands
		// in so different peers prefer different candidates instead of
		// all adopting the lowest ID. Map order is immaterial: PlanRewire
		// dedups by ID and ranks by (latency, ID).
		dst = append(dst, protocol.CandidateSource{
			ID:      overlay.NodeID(id),
			Latency: sim.Time(scheduler.Jitter(p.cfg.Seed, uint64(p.id), uint64(id)) % 1000),
		})
	}
	return dst
}

func (v *peerView) AppendDHTPeers(dst []protocol.CandidateSource) []protocol.CandidateSource {
	// The ring neighbours clockwise of this peer, wrapping past the top
	// of the ring like every successor scan: the structured overlay's
	// membership view of last resort.
	p := v.p
	base := len(dst)
	n := len(p.rv.ids)
	start := sort.Search(n, func(i int) bool { return p.rv.rings[i] > p.ring })
	for k := 0; k < n && len(dst)-base < 4; k++ {
		id := p.rv.ids[(start+k)%n]
		if id == p.id {
			continue
		}
		dst = append(dst, protocol.CandidateSource{
			ID:      overlay.NodeID(id),
			Latency: sim.Time(scheduler.Jitter(p.cfg.Seed, uint64(p.id), uint64(id)) % 1000),
		})
	}
	return dst
}

func (v *peerView) AppendRPCandidates(dst []overlay.NodeID, max int) []overlay.NodeID {
	p := v.p
	if p.sample == nil {
		return dst
	}
	for _, id := range p.sample(max, p.id) {
		dst = append(dst, overlay.NodeID(id))
	}
	return dst
}

func (v *peerView) Alive(id overlay.NodeID) bool { return v.members[int(id)] }

func (v *peerView) Connected(id overlay.NodeID) bool { return v.p.links[int(id)] }

// newPeer constructs a peer on a transport-provided identity and inbox;
// joiners open their buffer at the shared playback position instead of
// the stream start.
func newPeer(tr Transport, id int, inbox chan Message, cfg Config, space dht.Space, st *counters, isSource bool, openAt segment.ID, joinPeriod int) *peer {
	p := &peer{
		id:            id,
		ring:          ringOf(space, id),
		isSource:      isSource,
		tr:            tr,
		cfg:           cfg,
		space:         space,
		st:            st,
		inbox:         inbox,
		stop:          make(chan struct{}),
		rng:           sim.DeriveRNG(cfg.Seed, uint64(id)+0x9000),
		buf:           buffer.New(cfg.BufferSegments, openAt),
		backup:        dht.NewStore(),
		links:         make(map[int]bool),
		nbrMaps:       make(map[int]buffer.Map),
		nbrSeen:       make(map[int]int),
		overheard:     make(map[int]int),
		sighted:       make(map[int]int),
		ctrl:          bandwidth.NewController(0.3, float64(cfg.Rate)),
		pending:       make(map[segment.ID]int),
		rescuePending: make(map[segment.ID]int),
		curPeriod:     joinPeriod,
		lastReplace:   joinPeriod - 1000, // no artificial cooldown at birth
	}
	p.view.p = p
	if !isSource {
		p.alpha = prefetch.NewAlpha(prefetch.AlphaConfig{
			PlaybackRate:  cfg.Rate,
			BufferSize:    cfg.BufferSegments,
			Tau:           sim.Second,
			THop:          50 * sim.Millisecond,
			ExpectedNodes: cfg.Peers,
		})
	}
	return p
}

// outbound is the peer's per-period serving capacity O.
func (p *peer) outbound() int {
	if p.isSource {
		return p.cfg.SourceOutbound
	}
	return p.cfg.OutboundPerPeriod
}

// degreeTarget mirrors the simulator's rule: M for peers, the protected
// source degree for the root.
func (p *peer) degreeTarget() int {
	if p.isSource {
		return p.cfg.sourceDegree()
	}
	return p.cfg.Neighbors
}

// loop drains the inbox until the peer is stopped.
func (p *peer) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case m := <-p.inbox:
			p.handle(m)
		}
	}
}

// send stamps m with the peer's current period clock — the wire v2
// re-sync beacon every message carries — and transmits it. Callers hold
// p.mu (every protocol send site does).
func (p *peer) send(to int, m Message) bool {
	m.Period = p.curPeriod
	return p.tr.Send(to, m)
}

// clockPeriod returns the newest period stamp heard so far.
func (p *peer) clockPeriod() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clockSeen
}

// handle applies one incoming message under the peer's lock.
func (p *peer) handle(m Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Period > p.clockSeen {
		p.clockSeen = m.Period
	}
	// Every message is a sighting of its sender, and every gossip entry
	// of the peer it names — the membership evidence node mode's view is
	// built from. Gossip feeds the adoption pool regardless of which
	// message carried it (in-process only map announcements do; the
	// socket path's bootstrap ConnectOK rides a sample too).
	p.sighted[m.From] = p.curPeriod
	for _, g := range m.Gossip {
		if g == p.id {
			continue
		}
		p.sighted[g] = p.curPeriod
		if !p.links[g] {
			p.overheard[g] = p.curPeriod
		}
	}
	switch m.Kind {
	case msgMap:
		if m.Map != nil {
			p.nbrMaps[m.From] = *m.Map
		}
		p.nbrSeen[m.From] = p.curPeriod
	case msgRequest:
		p.st.asksReceived.Add(1)
		p.asks = append(p.asks, protocol.Ask{
			Requester: overlay.NodeID(m.From), ID: m.Seg, Deadline: m.Deadline,
		})
	case msgData:
		p.receiveData(m)
	case msgRescueReq:
		// The rescue serve path: a backup (or buffer) holder answers a
		// routed retrieval directly, exactly the paper's on-demand
		// retrieval exchange. Rescue grants draw on the same 2·O
		// outbound horizon the serve and push paths share — the
		// simulator debits its supplier ledger identically — so a hot
		// backup owner degrades to next-period retries instead of
		// serving unbounded copies for free.
		if p.pushSpent+p.rescueSpent < 2*p.outbound() && (p.buf.Has(m.Seg) || p.backup.Has(m.Seg)) {
			p.rescueSpent++
			p.send(m.From, Message{From: p.id, Kind: msgData, Seg: m.Seg, Rescue: true})
		}
	case msgConnect:
		// Adoption is bidirectional, as in the simulator's addEdge; the
		// accepting side replies with its current map so the newcomer can
		// schedule against it immediately. A rendezvous point additionally
		// stamps the reply with the current period (the joiner's clock
		// sync) and a membership sample (its first adoption candidates) —
		// the bootstrap handshake of the socket path.
		p.link(m.From)
		p.nbrSeen[m.From] = p.curPeriod
		delete(p.overheard, m.From)
		snap := p.buf.Snapshot()
		reply := Message{From: p.id, Kind: msgConnectOK, Map: &snap}
		if p.rpServer {
			reply.Deadline = sim.Time(p.curPeriod)
			if p.sample != nil {
				reply.Gossip = p.sample(p.cfg.Neighbors+2, m.From)
			}
		}
		p.send(m.From, reply)
	case msgConnectOK:
		p.link(m.From)
		p.nbrSeen[m.From] = p.curPeriod
		delete(p.overheard, m.From)
		if m.Map != nil {
			p.nbrMaps[m.From] = *m.Map
		}
	case msgBye:
		p.unlink(m.From)
	}
}

// receiveData ingests one data message: store, account, back up under the
// §4.3 responsibility rule, and — for eager-push copies below the hop
// bound — forward the fresh segment one hop further (the livenet mirror
// of the simulator's pushPhase frontier).
func (p *peer) receiveData(m Message) {
	delete(p.pending, m.Seg)
	wasRescue := false
	if _, ok := p.rescuePending[m.Seg]; ok && m.Rescue {
		wasRescue = true
	}
	delete(p.rescuePending, m.Seg)
	already := p.buf.Has(m.Seg)
	stored := p.buf.Insert(m.Seg)
	if stored {
		p.st.delivered.Add(1)
		// Credit the true arrival offset within the period, in period
		// fractions — the livenet mirror of the simulator's
		// (d.at - now).Seconds(). This matters under loss: a service
		// rate estimated as delivered-per-period is a throughput, and
		// Algorithm 1 caps asks per supplier at the estimated rate, so
		// throughput-as-estimate ratchets down on every lost grant and
		// never back up (ask less -> deliver less -> estimate less —
		// the measured pull collapse). Offsets below a full period keep
		// the estimate a rate: 3 segments by mid-period is a 6/s
		// supplier, with headroom above demand to re-ask lost grants.
		off := 1.0
		if p.cfg.Period > 0 && !p.periodAt.IsZero() {
			if frac := time.Since(p.periodAt).Seconds() / p.cfg.Period.Seconds(); frac < off {
				off = frac
			}
		}
		p.ctrl.ObserveDelivery(m.From, off)
		if m.Rescue {
			p.st.rescued.Add(1)
		}
		if m.Hop > 0 {
			p.st.pushDelivered.Add(1)
			p.pushReceived++
		}
		if succ, ok := p.rv.successor(p.ring); ok &&
			protocol.BackupResponsible(p.space, p.ring, succ, m.Seg, p.cfg.Replicas) {
			p.backup.Put(m.Seg)
		}
	}
	if wasRescue {
		switch {
		case already:
			p.repeated++ // gossip beat the rescue: repeated data
		case stored && m.Seg < p.pos:
			p.overdue++ // arrived after its play moment
		}
	}
	// Push forwarding: hop h receivers forward to hop h+1 while the hop
	// bound allows, spending from the same per-period outbound the serve
	// path draws on.
	if p.cfg.Engine && m.Hop > 0 && m.Hop < p.cfg.PushHops && stored {
		budget := p.outbound() - p.pushSpent
		sends := protocol.PlanPush(
			p.cfg.Seed^uint64(p.id)*0x9e3779b97f4a7c15^uint64(p.curPeriod),
			overlay.NodeID(p.id), []segment.ID{m.Seg}, p.neighbourNodeIDs(),
			func(to overlay.NodeID, seg segment.ID) bool {
				nm, ok := p.nbrMaps[int(to)]
				return ok && nm.Has(seg)
			}, budget)
		p.pushSpent += len(sends)
		for _, s := range sends {
			p.send(int(s.To), Message{From: p.id, Kind: msgData, Seg: s.ID, Hop: m.Hop + 1})
		}
	}
}

// link and unlink add and remove a connected neighbour; unlink also drops
// its announced map and its rate estimate.
func (p *peer) link(id int) {
	if !p.links[id] {
		p.links[id] = true
		p.nbrsStale = true
	}
}

func (p *peer) unlink(id int) {
	if p.links[id] {
		delete(p.links, id)
		p.nbrsStale = true
	}
	delete(p.nbrMaps, id)
	p.ctrl.Forget(id)
}

// neighbourNodeIDs returns the connected neighbours as overlay IDs in
// ascending order (the protocol functions' canonical neighbour form). The
// slice is rebuilt, never rewritten, when a link changes, so callers may
// keep iterating it across a link or unlink; it is read-only.
func (p *peer) neighbourNodeIDs() []overlay.NodeID {
	if p.nbrsStale {
		nbrs := make([]overlay.NodeID, 0, len(p.links))
		for id := range p.links {
			nbrs = append(nbrs, overlay.NodeID(id))
		}
		slices.Sort(nbrs)
		p.nbrs, p.nbrsStale = nbrs, false
	}
	return p.nbrs
}

// inFlight reports whether a pull or a rescue for seg is still pending.
func (p *peer) inFlight(seg segment.ID) bool {
	if _, ok := p.pending[seg]; ok {
		return true
	}
	_, ok := p.rescuePending[seg]
	return ok
}

// periodPlan is the first half of a scheduling period, run for every peer
// before any peer serves: advance the window, push fresh segments
// (source), repair the mesh, announce the buffer map with piggybacked
// membership gossip, schedule pulls, and fire DHT rescues for urgent
// holes. Splitting plan from serve mirrors the simulator's phase order —
// requests scheduled in a period are served within that same period — so
// a pull hop costs one period, not two; message handling still
// interleaves concurrently under the same lock.
func (p *peer) periodPlan(now int, pos segment.ID, rv ringView, members map[int]bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.curPeriod = now
	p.periodAt = time.Now()
	p.pos = pos
	p.rv = rv
	// This period's serve pass answers the asks scheduled below; credit
	// them so the end-of-period Tick pairs requests with arrivals.
	for _, a := range p.requested {
		p.ctrl.NoteRequested(a.supplier, a.count)
	}
	p.requested = p.requested[:0]
	p.buf.AdvanceTo(pos)
	p.backup.PruneBelow(pos)
	for seg, exp := range p.pending {
		if exp <= now {
			delete(p.pending, seg)
		}
	}
	for seg, exp := range p.rescuePending {
		if exp <= now {
			delete(p.rescuePending, seg)
		}
	}
	// Sighting state is fed by untrusted gossip on the socket path;
	// expiring it by TTL bounds what a hostile datagram stream can make
	// a peer hold. sighted is node-mode-only state and always safe to
	// prune; overheard shapes driver-mode adoption pools, so only node
	// mode expires it.
	ttl := p.sightTTL()
	for id, seen := range p.sighted {
		if now-seen > ttl {
			delete(p.sighted, id)
		}
	}
	if p.nodeMode {
		for id, seen := range p.overheard {
			if now-seen > ttl {
				delete(p.overheard, id)
			}
		}
	}
	if p.alpha != nil {
		p.alpha.Apply(p.overdue, p.repeated)
		p.overdue, p.repeated = 0, 0
	}

	if p.isSource {
		p.pushFresh(now)
	}
	if p.cfg.Repair {
		p.maintainMesh(now, members)
	}
	p.announce(members)
	if !p.isSource {
		p.schedulePulls(now)
		if p.cfg.Repair && now >= p.cfg.PlaybackLagPeriods {
			p.rescueUrgent(now)
		}
	}
}

// periodServe is the second half: drain the asks that arrived — including
// this period's, sent during the plan pass — through the supplier-side
// service discipline, then fold the period's rate observations.
func (p *peer) periodServe(now int, members map[int]bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.servePeriod(now, members)
	p.ctrl.Tick()
	p.pushSpent, p.rescueSpent, p.pushReceived = 0, 0, 0
}

// pushFresh is the source's hop-1 spray of this period's new segments.
func (p *peer) pushFresh(now int) {
	if !p.cfg.Engine || p.cfg.PushHops <= 0 {
		return
	}
	fresh := make([]segment.ID, 0, p.cfg.Rate)
	for s := segment.ID(now * p.cfg.Rate); s < segment.ID((now+1)*p.cfg.Rate); s++ {
		if p.buf.Has(s) {
			fresh = append(fresh, s)
		}
	}
	sends := protocol.PlanPush(
		p.cfg.Seed^0x51c^uint64(now), overlay.NodeID(p.id), fresh, p.neighbourNodeIDs(),
		func(to overlay.NodeID, seg segment.ID) bool {
			nm, ok := p.nbrMaps[int(to)]
			return ok && nm.Has(seg)
		}, p.outbound())
	p.pushSpent += len(sends)
	for _, s := range sends {
		p.send(int(s.To), Message{From: p.id, Kind: msgData, Seg: s.ID, Hop: 1})
	}
}

// servePeriod drains the period's accumulated asks through the shared
// supplier-side discipline: protocol.PlanServe (EDF + rarity + bounded
// carry) with the engine, protocol.ServeRoundRobin without — the same
// code paths the simulator's serveSupplier drives.
func (p *peer) servePeriod(now int, members map[int]bool) {
	asks := p.asks
	p.asks = p.asks[:0]
	var res protocol.ServeResult
	if p.cfg.Engine {
		p.rarity.Reset(p.cfg.BufferSegments, p.pos)
		for _, nb := range p.neighbourNodeIDs() {
			if nm, ok := p.nbrMaps[int(nb)]; ok {
				p.rarity.Add(nm)
			}
		}
		res = protocol.PlanServe(protocol.ServeInput{
			Carried:     p.carry,
			Fresh:       asks,
			Capacity:    2*p.outbound() - p.pushSpent - p.rescueSpent,
			QueueCap:    p.cfg.QueueFactor * p.outbound(),
			Horizon:     sim.Time(now),
			SupplierHas: p.buf.Has,
			RequesterAlive: func(id overlay.NodeID) bool {
				return members[int(id)]
			},
			RequesterHas: func(id overlay.NodeID, seg segment.ID) bool {
				nm, ok := p.nbrMaps[int(id)]
				return ok && nm.Has(seg)
			},
			Rarity: p.rarity.Rarity,
		}, &p.serveScratch)
		p.carry = res.Queued
		p.st.queueCarried.Add(int64(len(res.Queued)))
	} else {
		reqs := make([]protocol.Request, len(asks))
		for i, a := range asks {
			reqs[i] = protocol.Request{Requester: a.Requester, ID: a.ID, Expected: a.Deadline}
		}
		res = protocol.ServeRoundRobin(reqs, 2*p.outbound())
		p.carry = nil
	}
	p.st.grantsEvicted.Add(res.Evicted.Total())
	for _, g := range res.Granted {
		if g.Carried {
			p.st.queueServed.Add(1)
		}
		if p.buf.Has(g.ID) {
			p.st.grantsSent.Add(1)
			p.send(int(g.Requester), Message{From: p.id, Kind: msgData, Seg: g.ID})
		}
	}
}

// maintainMesh drops neighbours discovered dead (registry failure or
// silence beyond the staleness bound) and runs the shared rewire decision
// — protocol.PlanRewire, the simulator's maintenance rules — over the
// peer's locally learned view, sending Bye/Connect control messages for
// the resulting intent.
func (p *peer) maintainMesh(now int, members map[int]bool) {
	for nb := range p.links {
		silent := now-p.nbrSeen[nb] > p.cfg.DeadAfterPeriods
		if !members[nb] || silent {
			p.unlink(nb)
			delete(p.overheard, nb)
			p.st.deadDropped.Add(1)
		}
	}
	p.view.members = members
	view := protocol.MaintenanceView{
		Node:            overlay.NodeID(p.id),
		Source:          0, // the source is always peer 0
		IsSource:        p.isSource,
		Warm:            now > p.cfg.PlaybackLagPeriods,
		Round:           now,
		LastReplace:     p.lastReplace,
		Degree:          len(p.links),
		DegreeTarget:    p.degreeTarget(),
		MissedLastRound: p.missedLast,
		MissStreak:      p.missStreak,
		Provider:        &p.view,
	}
	p.rewireScratch.Reset()
	intent, ok := protocol.PlanRewire(view, p.cfg.maintenanceTuning(), &p.rewireScratch)
	p.view.members = nil
	if !ok {
		return
	}
	next := 0
	takeCandidate := func() (int, bool) {
		for next < len(intent.Adopt) {
			c := int(intent.Adopt[next])
			next++
			if members[c] && !p.links[c] && c != p.id {
				return c, true
			}
		}
		return -1, false
	}
	for _, victim := range intent.Drop {
		v := int(victim)
		if !p.links[v] {
			continue
		}
		cand, ok := takeCandidate()
		if !ok {
			break
		}
		p.lastReplace = now
		p.st.replaced.Add(1)
		p.unlink(v)
		p.send(v, Message{From: p.id, Kind: msgBye})
		delete(p.overheard, cand)
		p.send(cand, Message{From: p.id, Kind: msgConnect})
	}
	for want := p.degreeTarget() - len(p.links); want > 0; want-- {
		cand, ok := takeCandidate()
		if !ok {
			break
		}
		delete(p.overheard, cand)
		p.send(cand, Message{From: p.id, Kind: msgConnect})
	}
}

// announce sends the buffer map to every neighbour, with membership
// gossip piggybacked via the shared protocol picks (two of the sender's
// other neighbours per receiver).
func (p *peer) announce(members map[int]bool) {
	snap := p.buf.Snapshot()
	nbs := p.neighbourNodeIDs()
	gossip := make(map[overlay.NodeID][]int, len(nbs))
	protocol.GossipPicks(p.rng, nbs,
		func(id overlay.NodeID) bool { return members[int(id)] },
		func(to, about overlay.NodeID) {
			gossip[to] = append(gossip[to], int(about))
		})
	for _, nb := range nbs {
		m := snap
		p.send(int(nb), Message{From: p.id, Kind: msgMap, Map: &m, Gossip: gossip[nb]})
	}
}

// schedulePulls runs the paper's urgency+rarity scheduling policy over
// the latest neighbour maps and sends the resulting requests, each tagged
// with the period its segment plays in (the supplier's EDF key).
func (p *peer) schedulePulls(now int) {
	budget := p.cfg.OutboundPerPeriod - p.pushReceived
	if budget <= 0 {
		return
	}
	// The fetch frame is the peer's own window at the playback position.
	// An older map's window can start below pos, and segments behind pos
	// are pruned on both sides — asking for them burns the whole inbound
	// budget on unfulfillable requests (the simulator's schedulePhase
	// applies the same [pos, edge) floor). The top bounds the work a map
	// from a peer whose clock runs ahead (or a forged one) can cause.
	// Maps lag by up to a period, so they reach the enumerator's shifting
	// path.
	frame := segment.Window{Lo: p.pos, Hi: p.pos + segment.ID(p.cfg.BufferSegments)}
	nbrs := p.candNbrs[:0]
	for _, nb := range p.neighbourNodeIDs() {
		if m, ok := p.nbrMaps[int(nb)]; ok {
			nbrs = append(nbrs, protocol.NeighbourMap{ID: nb, Rate: p.ctrl.Rate(int(nb)), Map: m})
		}
	}
	p.candNbrs = nbrs
	p.sched.Reset()
	in := scheduler.Input{
		PriorityInput: scheduler.PriorityInput{
			Play:         p.pos,
			PlaybackRate: p.cfg.Rate,
			BufferSize:   p.cfg.BufferSegments,
			NoPlayback:   now < p.cfg.PlaybackLagPeriods,
		},
		Tau:           sim.Second,
		InboundBudget: budget,
		Candidates:    protocol.Candidates(&p.cand, frame, p.buf.View(), nbrs, p.inFlight),
		Scratch:       &p.sched,
		JitterSeed:    p.cfg.Seed ^ uint64(p.id)*0x9e3779b97f4a7c15,
		RarityNoise:   0.3,
	}
	for _, r := range (scheduler.Greedy{}).Schedule(in) {
		p.st.asksSent.Add(1)
		p.pending[r.ID] = now + p.cfg.retryPeriods()
		p.noteAsk(r.Supplier)
		p.send(r.Supplier, Message{
			From: p.id, Kind: msgRequest, Seg: r.ID, Deadline: p.playDeadline(r.ID),
		})
	}
}

// noteAsk counts one request to supplier, credited next period when the
// supplier's serve actually replies (see requested).
func (p *peer) noteAsk(supplier int) {
	for i := range p.requested {
		if p.requested[i].supplier == supplier {
			p.requested[i].count++
			return
		}
	}
	p.requested = append(p.requested, supplierAsks{supplier: supplier, count: 1})
}

// playDeadline is the period in which a segment plays — the EDF key the
// supplier orders by and the horizon test for carrying.
func (p *peer) playDeadline(seg segment.ID) sim.Time {
	return sim.Time(int(seg)/p.cfg.Rate + p.cfg.PlaybackLagPeriods)
}

// rescueUrgent runs the urgent-line prediction (the same α-adapted
// prefetch.Predict the simulator drives) and fires DHT-backed retrievals
// for the predicted-missed segments: each goes to the ring owner of one
// of its k backup keys, falling back to the source when the ring is too
// thin to locate one.
func (p *peer) rescueUrgent(now int) {
	if p.alpha == nil {
		return
	}
	plan := prefetch.Predict(p.buf, p.pos, p.alpha.Value(), p.cfg.RescueLimit, p.inFlight)
	if !plan.Triggered {
		return
	}
	for _, seg := range plan.Missed {
		// Spread load across the k replicas: start from a replica keyed
		// by (segment, period) and take the first owner that is not us.
		// Replica indices are 1..k — the §4.3 placement rule the backup
		// side (BackupResponsible) stores under; index 0 would hash to a
		// segment-independent constant key.
		target := -1
		for r := 0; r < p.cfg.Replicas; r++ {
			replica := 1 + (int(seg)+now+r)%p.cfg.Replicas
			key := dht.HashKey(p.space, seg, replica)
			if owner, ok := p.rv.owner(key); ok && owner != p.id {
				target = owner
				break
			}
		}
		if target < 0 {
			target = 0 // the source: the retrieval path of last resort
		}
		p.rescuePending[seg] = now + p.cfg.retryPeriods()
		p.st.rescueAsked.Add(1)
		p.send(target, Message{From: p.id, Kind: msgRescueReq, Seg: seg})
	}
}
