package buffer

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"continustreaming/internal/segment"
)

// Map is the buffer availability summary a node sends to each connected
// neighbour every scheduling period: the window's first segment ID plus one
// availability bit per window slot. With the paper's B = 600 this is the
// 620-bit message costed in §5.4.2 (20-bit head ID + 600-bit bitmap).
type Map struct {
	Lo   segment.ID
	Bits []uint64
	Size int
}

// HeadIDBits is the number of bits the wire format spends on the head
// segment ID. The paper picks 20 because a source emits at most
// 3600·10·24 = 864000 < 2^20 segments per day-long session.
const HeadIDBits = 20

// WireBits returns the control-message size in bits for a map over a window
// of size segments: HeadIDBits + size. For B = 600 this is 620.
func WireBits(size int) int64 { return int64(HeadIDBits + size) }

// Has reports whether the map advertises segment id.
func (m Map) Has(id segment.ID) bool {
	if id < m.Lo || id >= m.Lo+segment.ID(m.Size) {
		return false
	}
	i := int(id - m.Lo)
	return m.Bits[i/64]&(1<<(i%64)) != 0
}

// Window returns the ID range the map describes.
func (m Map) Window() segment.Window {
	return segment.Window{Lo: m.Lo, Hi: m.Lo + segment.ID(m.Size)}
}

// Count returns the number of advertised segments.
func (m Map) Count() int {
	n := 0
	for _, w := range m.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// PositionFromTail mirrors Buffer.PositionFromTail for a received map: the
// requesting node computes its neighbours' FIFO positions from their
// advertised windows.
func (m Map) PositionFromTail(id segment.ID) (int, bool) {
	if !m.Has(id) {
		return 0, false
	}
	return int(m.Lo + segment.ID(m.Size) - id), true
}

// Marshal encodes the map into the compact wire format: a 4-byte window
// size, an 8-byte head ID (of which only HeadIDBits are semantically
// meaningful on a real wire; we keep whole bytes for simplicity and cost
// accounting uses WireBits, not len(bytes)), then the bitmap.
func (m Map) Marshal() []byte {
	out := make([]byte, 4+8+8*len(m.Bits))
	binary.LittleEndian.PutUint32(out[0:4], uint32(m.Size))
	binary.LittleEndian.PutUint64(out[4:12], uint64(m.Lo))
	for i, w := range m.Bits {
		binary.LittleEndian.PutUint64(out[12+8*i:], w)
	}
	return out
}

// UnmarshalMap decodes a map previously produced by Marshal. It rejects
// frames that are not canonical Marshal output, including ones with
// availability bits set past the map's size.
func UnmarshalMap(data []byte) (Map, error) {
	if len(data) < 12 {
		return Map{}, fmt.Errorf("buffer: map too short: %d bytes", len(data))
	}
	size := int(binary.LittleEndian.Uint32(data[0:4]))
	if size < 0 || size > 1<<24 {
		return Map{}, fmt.Errorf("buffer: implausible map size %d", size)
	}
	words := (size + 63) / 64
	if len(data) != 12+8*words {
		return Map{}, fmt.Errorf("buffer: map length %d does not match size %d", len(data), size)
	}
	m := Map{
		Lo:   segment.ID(binary.LittleEndian.Uint64(data[4:12])),
		Size: size,
		Bits: make([]uint64, words),
	}
	for i := range m.Bits {
		m.Bits[i] = binary.LittleEndian.Uint64(data[12+8*i:])
	}
	// Bits past Size in the last word would read as IDs beyond the window
	// to any word-level consumer; Marshal never sets them.
	if r := uint(size) & 63; r != 0 && m.Bits[words-1]>>r != 0 {
		return Map{}, fmt.Errorf("buffer: map sets bits past its size %d", size)
	}
	return m, nil
}

// FreshIn returns the IDs advertised by the map within w that pass the keep
// filter, ascending. The scheduler uses it to enumerate segments that are
// "all fresh to the local node" (§4.2): available at a neighbour and not in
// the local buffer.
func (m Map) FreshIn(w segment.Window, keep func(segment.ID) bool) []segment.ID {
	w = w.Intersect(m.Window())
	var out []segment.ID
	for id := w.Lo; id < w.Hi; id++ {
		if m.Has(id) && keep(id) {
			out = append(out, id)
		}
	}
	return out
}

// MissingWords writes the absence bitmap of w into dst: bit i of
// dst[i/64] is set when segment w.Lo+i is not advertised. IDs outside the
// map's window count as absent, matching Has. dst covers the first
// 64·len(dst) IDs of w; bits at or past w's width stay clear. Push
// planning builds one such lack row per neighbour.
func (m Map) MissingWords(dst []uint64, w segment.Window) {
	width := int(w.Hi - w.Lo)
	off := int(w.Lo - m.Lo)
	for k := range dst {
		lo := k << 6
		switch {
		case width <= lo:
			dst[k] = 0
		case width-lo < 64:
			dst[k] = ^m.wordAt(off+lo) & (1<<uint(width-lo) - 1)
		default:
			dst[k] = ^m.wordAt(off + lo)
		}
	}
}

// wordAt returns the 64 availability bits starting at window offset off,
// which may lie below or past the window; positions outside it read as
// zero. Bits past Size are zero in every map (UnmarshalMap rejects others),
// so a read running off the end needs no masking.
func (m Map) wordAt(off int) uint64 {
	if off <= -64 || off >= m.Size {
		return 0
	}
	if off < 0 {
		return m.wordAt(0) << uint(-off)
	}
	wi, sh := off>>6, uint(off)&63
	got := m.Bits[wi] >> sh
	if sh != 0 && wi+1 < len(m.Bits) {
		got |= m.Bits[wi+1] << (64 - sh)
	}
	return got
}
