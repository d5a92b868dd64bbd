package livenet

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"continustreaming/internal/buffer"
	"continustreaming/internal/dht"
	"continustreaming/internal/segment"
	"continustreaming/internal/sim"
)

// MsgKind discriminates the protocol messages peers exchange.
type MsgKind uint8

// The livenet wire protocol: the periodic buffer-map exchange (with
// piggybacked membership gossip), pull requests and data grants, the
// DHT-backed rescue pair, and the mesh-repair control messages.
const (
	msgMap MsgKind = iota
	msgRequest
	msgData
	msgRescueReq
	msgConnect
	msgConnectOK
	msgBye
)

// Message is the union of protocol messages exchanged between peers.
type Message struct {
	From int
	Kind MsgKind
	// Map is the buffer-availability announcement (msgMap, msgConnectOK).
	Map *buffer.Map
	// Gossip piggybacks membership gossip on a map announcement: peer IDs
	// the sender tells the receiver about (the SCAMP-style channel the
	// simulator's maintenance phase also rides).
	Gossip []int
	// Seg is the segment a request asks for or a data message delivers.
	Seg segment.ID
	// Deadline is the period in which Seg plays at the requester, the
	// supplier-side EDF key (msgRequest).
	Deadline sim.Time
	// Hop is the push-hop counter on data (0 = pull grant or rescue
	// reply; h >= 1 = eager push, forwarded while h < PushHops).
	Hop int
	// Period is the sender's current session period, stamped on every
	// message a running peer sends (bootstrap Connects go out before a
	// clock exists and carry 0). Receivers re-anchor their period clock
	// to the max stamp heard — the continuous re-sync that keeps EDF
	// deadlines and playback positions aligned when a node misses ticks.
	// Wire version 1 frames decode with Period 0 (no stamp).
	Period int
	// Rescue marks data served from the DHT backup path.
	Rescue bool
	// GossipAddrs optionally parallels Gossip with transport addresses
	// for the named peers. Peers never set it: the UDP transport fills
	// it from its address book on encode and absorbs it back into the
	// book on decode, so membership gossip stays reachable across
	// process boundaries. In-process it is always nil.
	GossipAddrs []string
}

// network is the in-process channel Transport: one buffered inbox per
// registered peer. Sends are non-blocking — a saturated or departed
// receiver drops the message, and the protocol's retry/repair paths are
// what recover, exactly as over UDP (the drop model udpTransport
// mirrors). It knows which inboxes exist but answers no membership
// questions: peers learn who is alive from their own contacts and gossip
// on both transports.
type network struct {
	mu       sync.RWMutex
	inboxes  map[int]chan Message
	nextID   int
	inboxCap int
	inboxMeter
}

func newNetwork(inboxCap int) *network {
	return &network{inboxes: make(map[int]chan Message), inboxCap: inboxCap}
}

// register allocates the next peer ID and its inbox.
func (nw *network) register() (int, chan Message) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	id := nw.nextID
	nw.nextID++
	ch := make(chan Message, nw.inboxCap)
	nw.inboxes[id] = ch
	return id, ch
}

// unregister removes a departed peer; in-flight sends to it fail from now
// on, which is how the rest of the mesh eventually notices.
func (nw *network) unregister(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	delete(nw.inboxes, id)
}

// Send delivers non-blockingly; false means the receiver is gone or
// saturated and the message was dropped.
func (nw *network) Send(to int, m Message) bool {
	nw.mu.RLock()
	ch, ok := nw.inboxes[to]
	nw.mu.RUnlock()
	if !ok {
		return false
	}
	return nw.offer(ch, m)
}

// ringView is one peer's picture of the rescue ring: the position in the
// DHT identifier space of every member it currently believes alive,
// sorted clockwise. The peer derives its backup responsibility
// (successor arc) and rescue targets (key owners) from it — the livenet
// stand-in for the structured overlay's routed lookups.
type ringView []ringMember

// ringMember is one member's ring position.
type ringMember struct {
	ring dht.ID
	id   int
}

// ringOf spreads peer IDs uniformly over the identifier space: an odd
// multiplier modulo a power of two is a bijection, so consecutive peer
// IDs land on well-separated ring arcs.
func ringOf(space dht.Space, id int) dht.ID {
	return dht.ID(uint64(id) * 0x9e3779b1 & uint64(space.N()-1))
}

// compareRingMembers orders members clockwise, ties by peer ID.
func compareRingMembers(a, b ringMember) int {
	if c := cmp.Compare(a.ring, b.ring); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// insert adds m in clockwise order; remove deletes it. Both keep the
// backing array.
func (rv ringView) insert(m ringMember) ringView {
	i, found := slices.BinarySearchFunc(rv, m, compareRingMembers)
	if found {
		return rv
	}
	return slices.Insert(rv, i, m)
}

func (rv ringView) remove(m ringMember) ringView {
	if i, found := slices.BinarySearchFunc(rv, m, compareRingMembers); found {
		return slices.Delete(rv, i, i+1)
	}
	return rv
}

// successor returns the clockwise next ring position after ring (the arc
// bound the backup rule needs), or false with fewer than two members.
func (rv ringView) successor(ring dht.ID) (dht.ID, bool) {
	if len(rv) < 2 {
		return 0, false
	}
	i := sort.Search(len(rv), func(i int) bool { return rv[i].ring > ring })
	if i == len(rv) {
		i = 0
	}
	return rv[i].ring, true
}

// owner returns the peer responsible for a key: the one whose arc
// (predecessor, self] contains it — i.e. the first member at or clockwise
// after the key.
func (rv ringView) owner(key dht.ID) (int, bool) {
	if len(rv) == 0 {
		return 0, false
	}
	i := sort.Search(len(rv), func(i int) bool { return rv[i].ring >= key })
	if i == len(rv) {
		i = 0
	}
	return rv[i].id, true
}
