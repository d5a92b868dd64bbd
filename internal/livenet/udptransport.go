package livenet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// udpTransport carries Messages across process boundaries as one wire
// frame per UDP datagram. It keeps the channel transport's drop model
// exactly: Send never blocks and returns false when the message cannot
// be delivered — no address on file, a socket error, or (on the receive
// side) a saturated inbox, where the datagram is discarded just as the
// channel transport discards into a full channel. Loss recovery stays
// where the protocol puts it: retry, repair and rescue.
//
// The transport is also the socket path's address book: it learns peer
// addresses from the source address of every datagram a peer sends and
// from the (id, addr) pairs piggybacked on membership gossip, which it
// fills in on encode and strips on decode — peers keep talking in small
// integer IDs on both transports.
type udpTransport struct {
	self   int
	conn   *net.UDPConn
	inbox  chan Message
	closed atomic.Bool
	inboxMeter

	// shaper, when non-nil, injects WAN conditions on the egress path:
	// seeded per-link loss, latency/jitter, reorder and bandwidth caps
	// applied between encode and the socket write. epoch anchors the
	// shaper's link clock (the token buckets run on time-since-bind).
	shaper *Shaper
	epoch  time.Time

	mu   sync.RWMutex
	book map[int]*net.UDPAddr
}

// maxBook bounds the address book. Gossip arrives from an open socket,
// so the IDs it names are untrusted input; a full book stops learning
// new peers (existing entries still refresh) instead of growing without
// limit. Far above any loopback session, far below a memory problem.
const maxBook = 8192

// newUDPTransport binds listen ("host:port"; port 0 picks a free one)
// and starts the read loop. The returned transport's inbox is the peer's
// receive channel, capacity inboxCap with drop-on-overflow (counted by
// the embedded inboxMeter).
func newUDPTransport(listen string, self, inboxCap int) (*udpTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen address %q: %v", listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: bind %q: %v", listen, err)
	}
	t := &udpTransport{
		self:  self,
		conn:  conn,
		inbox: make(chan Message, inboxCap),
		book:  make(map[int]*net.UDPAddr),
		epoch: time.Now(),
	}
	go t.readLoop()
	return t, nil
}

// setShaper installs an egress traffic shaper (nil = clean network).
// Call before the first Send; the transport never swaps shapers while
// datagrams are in flight.
func (t *udpTransport) setShaper(s *Shaper) { t.shaper = s }

// LocalAddr returns the bound socket address ("ip:port").
func (t *udpTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// Inbox returns the receive channel the read loop delivers into.
func (t *udpTransport) Inbox() chan Message { return t.inbox }

// Learn records a peer's address, overwriting any previous one (a peer
// that rebinds is reached at its latest known socket).
func (t *udpTransport) Learn(id int, addr string) error {
	if id < 0 || id == t.self {
		return fmt.Errorf("livenet: cannot learn address for peer %d", id)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("livenet: peer %d address %q: %v", id, addr, err)
	}
	t.learnUDP(id, ua)
	return nil
}

// learnUDP is Learn for an already-resolved source address.
func (t *udpTransport) learnUDP(id int, addr *net.UDPAddr) {
	if id < 0 || id == t.self || addr == nil {
		return
	}
	t.mu.Lock()
	if _, known := t.book[id]; known || len(t.book) < maxBook {
		t.book[id] = addr
	}
	t.mu.Unlock()
}

// Send encodes m and writes it as one datagram to the peer's known
// address. Gossip entries are annotated with the addresses on file so
// the receiver can reach the peers the gossip names. False means the
// message was dropped (unknown address, encode failure, socket error) —
// the same contract as the channel transport.
func (t *udpTransport) Send(to int, m Message) bool {
	if t.closed.Load() {
		return false
	}
	t.mu.RLock()
	dst, ok := t.book[to]
	var addrs []string
	if ok && len(m.Gossip) > 0 {
		addrs = make([]string, len(m.Gossip))
		for i, g := range m.Gossip {
			if a, ok := t.book[g]; ok {
				addrs[i] = a.String()
			} else if g == t.self {
				addrs[i] = t.conn.LocalAddr().String()
			}
		}
	}
	t.mu.RUnlock()
	if !ok {
		return false
	}
	m.GossipAddrs = addrs
	frame, err := EncodeMessage(m)
	if err != nil {
		return false
	}
	if t.shaper != nil {
		fate := t.shaper.Shape(to, len(frame), time.Since(t.epoch))
		if fate.Drop {
			// Link loss, not a send failure: the datagram left this host
			// and died in the network, so the sender reports success —
			// exactly the knowledge a real WAN sender has. Shaper.Dropped
			// keeps the count separable from transport drops.
			return true
		}
		if fate.Delay > 0 {
			// The frame is freshly allocated per Send and dst addresses
			// are never mutated, so the deferred write shares them
			// safely. Writes after Close fail at the socket and are
			// discarded — the same silence an in-flight datagram meets
			// when its destination dies.
			time.AfterFunc(fate.Delay, func() {
				if !t.closed.Load() {
					t.conn.WriteToUDP(frame, dst)
				}
			})
			return true
		}
	}
	_, err = t.conn.WriteToUDP(frame, dst)
	return err == nil
}

// Close shuts the socket down; the read loop exits and Send refuses.
func (t *udpTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	return t.conn.Close()
}

// readLoop decodes datagrams into the inbox, learning the sender's
// address from every packet and the gossiped (id, addr) pairs from the
// frame before handing the peer a transport-clean message. Malformed
// datagrams are dropped silently: over UDP anyone can write to the
// socket, and the codec's strict bounds checks are the defence.
func (t *udpTransport) readLoop() {
	buf := make([]byte, maxFrame)
	for {
		n, src, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			if t.closed.Load() {
				return
			}
			continue
		}
		m, err := DecodeMessage(buf[:n])
		if err != nil || m.From == t.self {
			continue
		}
		t.learnUDP(m.From, src)
		for i, g := range m.Gossip {
			if m.GossipAddrs == nil || m.GossipAddrs[i] == "" {
				continue
			}
			if ua, err := net.ResolveUDPAddr("udp", m.GossipAddrs[i]); err == nil {
				t.learnUDP(g, ua)
			}
		}
		m.GossipAddrs = nil
		t.offer(t.inbox, m)
	}
}
