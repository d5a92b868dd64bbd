package livenet

import "sync/atomic"

// Transport is the message-passing substrate a peer sends through — the
// seam between the protocol and the medium that carries it. Two
// implementations exist: the in-process channel transport (network) and
// the UDP transport (udpTransport), which crosses real process
// boundaries. Neither tells a peer who is alive; membership comes from
// the messages and gossip the peer receives. Both share the drop model
// the protocol is built against: Send never blocks, and false means the
// message was dropped — receiver gone, inbox saturated, or (over
// sockets) the address unknown — leaving recovery to the retry and
// repair paths.
//
// Receiving is not part of the interface: each transport hands its peer
// a plain chan Message at construction, so the peer loop is identical
// over channels and sockets.
type Transport interface {
	// Send delivers m to peer to, non-blockingly. False means dropped.
	Send(to int, m Message) bool
}

// inboxMeter accounts a transport's receive side: messages discarded
// because the receiving inbox was full, and the deepest backlog a
// delivery left behind — the high-water mark an inbox size is judged
// against.
type inboxMeter struct {
	dropped   atomic.Int64
	highWater atomic.Int64
}

// offer delivers m into ch without blocking; false means the inbox was
// full and m was dropped.
func (im *inboxMeter) offer(ch chan Message, m Message) bool {
	select {
	case ch <- m:
		depth := int64(len(ch))
		for {
			hw := im.highWater.Load()
			if depth <= hw || im.highWater.CompareAndSwap(hw, depth) {
				return true
			}
		}
	default:
		im.dropped.Add(1)
		return false
	}
}

// Dropped returns how many messages a full inbox discarded.
func (im *inboxMeter) Dropped() int64 { return im.dropped.Load() }

// HighWater returns the deepest inbox backlog seen.
func (im *inboxMeter) HighWater() int64 { return im.highWater.Load() }
