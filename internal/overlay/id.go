// Package overlay provides the identifier space shared by all structured
// overlays in this repository: 160-bit node/key identifiers, the XOR metric
// used by Kademlia, the clockwise ring metric used by Chord-style overlays,
// and helpers for generating and comparing identifiers.
package overlay

import (
	"cmp"
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

// ID is a 160-bit overlay identifier held as three big-endian words: hi is
// bytes 0–7, mid bytes 8–15 and lo bytes 16–19, so the words order as the
// bytes do and every comparison is at most three integer compares. The zero
// value is the all-zeros identifier.
type ID struct {
	hi, mid uint64
	lo      uint32
}

// FromBytes returns the identifier spelled by b, most significant byte
// first.
func FromBytes(b [IDBytes]byte) ID {
	return ID{
		hi:  binary.BigEndian.Uint64(b[0:]),
		mid: binary.BigEndian.Uint64(b[8:]),
		lo:  binary.BigEndian.Uint32(b[16:]),
	}
}

// Bytes returns the identifier's 20 bytes, most significant first; it
// inverts FromBytes.
func (id ID) Bytes() [IDBytes]byte {
	var b [IDBytes]byte
	binary.BigEndian.PutUint64(b[0:], id.hi)
	binary.BigEndian.PutUint64(b[8:], id.mid)
	binary.BigEndian.PutUint32(b[16:], id.lo)
	return b
}

// RandomID returns an identifier drawn uniformly from the id space. Open
// overlays let nodes self-assign exactly these — the root cause of the sybil
// vulnerability the paper discusses. It takes three draws and keeps the
// first 20 of their 24 big-endian bytes (the fields are evaluated left to
// right).
func RandomID(g *sim.RNG) ID {
	return ID{hi: g.Uint64(), mid: g.Uint64(), lo: uint32(g.Uint64() >> 32)}
}

// KeyID hashes arbitrary bytes into the identifier space (SHA-256 truncated
// to 160 bits).
func KeyID(data []byte) ID {
	sum := sha256.Sum256(data)
	return FromBytes([IDBytes]byte(sum[:IDBytes]))
}

// String returns a short hex prefix for logs and tables.
func (id ID) String() string {
	b := id.Bytes()
	return hex.EncodeToString(b[:4])
}

// Bit returns bit i (0 = most significant) of the identifier.
func (id ID) Bit(i int) int {
	switch {
	case i < 0 || i >= IDBits:
		return 0
	case i < 64:
		return int(id.hi>>(63-uint(i))) & 1
	case i < 128:
		return int(id.mid>>(127-uint(i))) & 1
	default:
		return int(id.lo>>(IDBits-1-uint(i))) & 1
	}
}

// XOR returns the bitwise XOR of two identifiers (the Kademlia distance).
func (a ID) XOR(b ID) ID {
	return ID{hi: a.hi ^ b.hi, mid: a.mid ^ b.mid, lo: a.lo ^ b.lo}
}

// Cmp compares identifiers as unsigned big-endian integers: -1 if a < b, 0
// if equal, +1 if a > b.
func (a ID) Cmp(b ID) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(a.mid, b.mid); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// Less reports whether a is strictly smaller than b as an unsigned
// big-endian integer.
func (a ID) Less(b ID) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	if a.mid != b.mid {
		return a.mid < b.mid
	}
	return a.lo < b.lo
}

// Hash mixes all three words of id into 64 bits for hash sets keyed by ID
// or Distance. Each word goes through a multiply, so the high bits of the
// result depend on every bit of id: index a table by its top bits. Ids
// that share a long prefix (a sybil cloud around one key) spread as well
// as random ones.
func (id ID) Hash() uint64 {
	h := id.hi * 0x9e3779b97f4a7c15
	h = (h ^ id.mid) * 0xbf58476d1ce4e5b9
	return (h ^ uint64(id.lo)) * 0x94d049bb133111eb
}

// CommonPrefixLen returns the number of leading bits shared by a and b
// (IDBits when equal). It indexes Kademlia's k-buckets.
func CommonPrefixLen(a, b ID) int {
	switch {
	case a.hi != b.hi:
		return bits.LeadingZeros64(a.hi ^ b.hi)
	case a.mid != b.mid:
		return 64 + bits.LeadingZeros64(a.mid^b.mid)
	}
	return 128 + bits.LeadingZeros32(a.lo^b.lo)
}

// Distance is an XOR distance, ordered by Less. For a fixed target,
// id ↦ XORDistance(id, target) is a bijection: equal distances mean equal
// identifiers.
type Distance = ID

// XORDistance returns the Kademlia distance between a and b.
func XORDistance(a, b ID) Distance { return a.XOR(b) }

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
