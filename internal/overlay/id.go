// Package overlay provides the identifier space shared by all structured
// overlays in this repository: 160-bit node/key identifiers, the XOR metric
// used by Kademlia, the clockwise ring metric used by Chord-style overlays,
// and helpers for generating and comparing identifiers.
package overlay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"

	"repro/internal/sim"
)

// IDBytes is the identifier width in bytes (160 bits, as in Chord, Pastry,
// Kademlia and their deployed descendants).
const IDBytes = 20

// IDBits is the identifier width in bits.
const IDBits = IDBytes * 8

// ID is a 160-bit overlay identifier. The zero value is the all-zeros
// identifier.
type ID [IDBytes]byte

// RandomID returns an identifier drawn uniformly from the id space. Open
// overlays let nodes self-assign exactly these — the root cause of the sybil
// vulnerability the paper discusses.
func RandomID(g *sim.RNG) ID {
	var buf [24]byte
	for i := 0; i < len(buf); i += 8 {
		binary.BigEndian.PutUint64(buf[i:], g.Uint64())
	}
	var id ID
	copy(id[:], buf[:IDBytes])
	return id
}

// KeyID hashes arbitrary bytes into the identifier space (SHA-256 truncated
// to 160 bits).
func KeyID(data []byte) ID {
	sum := sha256.Sum256(data)
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// String returns a short hex prefix for logs and tables.
func (id ID) String() string { return hex.EncodeToString(id[:4]) }

// Bit returns bit i (0 = most significant) of the identifier.
func (id ID) Bit(i int) int {
	if i < 0 || i >= IDBits {
		return 0
	}
	return int(id[i/8]>>(7-uint(i%8))) & 1
}

// XOR returns the bitwise XOR of two identifiers (the Kademlia distance).
func (a ID) XOR(b ID) ID {
	var out ID
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// Cmp compares identifiers as unsigned big-endian integers: -1 if a < b, 0
// if equal, +1 if a > b.
func (a ID) Cmp(b ID) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// CommonPrefixLen returns the number of leading bits shared by a and b
// (IDBits when equal). It indexes Kademlia's k-buckets.
func CommonPrefixLen(a, b ID) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return IDBits
}

// Distance is an XOR distance held as big-endian words, so ordering two
// distances costs at most three integer compares. For a fixed target,
// id ↦ XORDistance(id, target) is a bijection: equal distances mean equal
// identifiers.
type Distance struct {
	hi, mid uint64
	lo      uint32
}

// XORDistance returns the Kademlia distance between a and b.
func XORDistance(a, b ID) Distance {
	return Distance{
		hi:  binary.BigEndian.Uint64(a[0:]) ^ binary.BigEndian.Uint64(b[0:]),
		mid: binary.BigEndian.Uint64(a[8:]) ^ binary.BigEndian.Uint64(b[8:]),
		lo:  binary.BigEndian.Uint32(a[16:]) ^ binary.BigEndian.Uint32(b[16:]),
	}
}

// Less reports whether d is strictly smaller than e.
func (d Distance) Less(e Distance) bool {
	if d.hi != e.hi {
		return d.hi < e.hi
	}
	if d.mid != e.mid {
		return d.mid < e.mid
	}
	return d.lo < e.lo
}

// Bit returns bit i (0 = most significant) of the distance.
func (d Distance) Bit(i int) int {
	switch {
	case i < 0 || i >= IDBits:
		return 0
	case i < 64:
		return int(d.hi>>(63-uint(i))) & 1
	case i < 128:
		return int(d.mid>>(127-uint(i))) & 1
	default:
		return int(d.lo>>(IDBits-1-uint(i))) & 1
	}
}

// CloserXOR reports whether a is strictly closer to target than b under the
// XOR metric.
func CloserXOR(target, a, b ID) bool {
	return XORDistance(a, target).Less(XORDistance(b, target))
}

// RingDistance returns the clockwise distance from a to b on the 64-bit
// ring; wrap-around is handled by unsigned arithmetic.
func RingDistance(a, b uint64) uint64 { return b - a }

// RingBetween reports whether x lies in the clockwise-open interval (a, b]
// on the 64-bit ring. It is the successor test used by Chord routing.
func RingBetween(a, x, b uint64) bool {
	if a == b {
		// Full circle: everything except a itself is "between"; by Chord
		// convention a single node owns the whole ring.
		return x != a
	}
	return RingDistance(a, x) != 0 && RingDistance(a, x) <= RingDistance(a, b)
}
