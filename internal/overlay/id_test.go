package overlay

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestKeyIDDeterministic(t *testing.T) {
	a := KeyID([]byte("hello"))
	b := KeyID([]byte("hello"))
	c := KeyID([]byte("world"))
	if a != b {
		t.Fatal("KeyID not deterministic")
	}
	if a == c {
		t.Fatal("distinct keys collided (astronomically unlikely)")
	}
}

func TestRandomIDUniqueness(t *testing.T) {
	g := sim.NewRNG(1)
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := RandomID(g)
		if seen[id] {
			t.Fatal("duplicate random 160-bit id within 1000 draws")
		}
		seen[id] = true
	}
}

func TestBit(t *testing.T) {
	var id ID
	id[0] = 0x80 // bit 0 set
	id[1] = 0x01 // bit 15 set
	if id.Bit(0) != 1 || id.Bit(1) != 0 || id.Bit(15) != 1 {
		t.Fatalf("Bit extraction wrong: %d %d %d", id.Bit(0), id.Bit(1), id.Bit(15))
	}
	if id.Bit(-1) != 0 || id.Bit(IDBits) != 0 {
		t.Fatal("out-of-range Bit should be 0")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	var a, b ID
	if got := CommonPrefixLen(a, b); got != IDBits {
		t.Fatalf("equal ids CPL = %d, want %d", got, IDBits)
	}
	b[0] = 0x80
	if got := CommonPrefixLen(a, b); got != 0 {
		t.Fatalf("CPL = %d, want 0", got)
	}
	b[0] = 0x01
	if got := CommonPrefixLen(a, b); got != 7 {
		t.Fatalf("CPL = %d, want 7", got)
	}
	b[0] = 0
	b[5] = 0x10
	if got := CommonPrefixLen(a, b); got != 43 {
		t.Fatalf("CPL = %d, want 43", got)
	}
}

func TestCmp(t *testing.T) {
	var a, b ID
	if a.Cmp(b) != 0 {
		t.Fatal("equal ids must compare 0")
	}
	b[19] = 1
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 {
		t.Fatal("Cmp ordering wrong")
	}
}

func TestCloserXOR(t *testing.T) {
	target := KeyID([]byte("t"))
	a := target
	a[19] ^= 0x01 // distance 1
	b := target
	b[0] ^= 0x80 // enormous distance
	if !CloserXOR(target, a, b) {
		t.Fatal("a (distance 1) should be closer than b")
	}
	if CloserXOR(target, b, a) {
		t.Fatal("b should not be closer than a")
	}
	if CloserXOR(target, a, a) {
		t.Fatal("CloserXOR must be strict")
	}
}

func TestRingBetween(t *testing.T) {
	tests := []struct {
		a, x, b uint64
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false}, // interval is open at a
		{10, 20, 20, true},  // closed at b
		{10, 25, 20, false},
		{20, 5, 10, true},   // wrap-around
		{20, 15, 10, false}, // wrap-around, x before a
		{7, 7, 7, false},    // degenerate single node: a itself excluded
		{7, 8, 7, true},     // degenerate: everything else included
	}
	for _, tt := range tests {
		if got := RingBetween(tt.a, tt.x, tt.b); got != tt.want {
			t.Errorf("RingBetween(%d,%d,%d) = %v, want %v", tt.a, tt.x, tt.b, got, tt.want)
		}
	}
}

// Property: XOR metric axioms — identity, symmetry, and the triangle
// equality d(a,c) <= d(a,b) XOR d(b,c) doesn't hold in general for XOR, but
// d(a,b)=0 iff a==b and d is symmetric.
func TestPropertyXORMetric(t *testing.T) {
	f := func(ab, bb [IDBytes]byte) bool {
		a, b := ID(ab), ID(bb)
		dAB, dBA := a.XOR(b), b.XOR(a)
		if dAB != dBA {
			return false
		}
		zero := dAB.Cmp(ID{}) == 0
		return zero == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: unidirectionality of XOR — for a fixed target and distinct a, b,
// exactly one of the two is strictly closer.
func TestPropertyXORTotalOrder(t *testing.T) {
	f := func(tb, ab, bb [IDBytes]byte) bool {
		target, a, b := ID(tb), ID(ab), ID(bb)
		if a == b {
			return !CloserXOR(target, a, b) && !CloserXOR(target, b, a)
		}
		return CloserXOR(target, a, b) != CloserXOR(target, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refCloser is the byte-wise definition of the XOR order that the word
// distance must reproduce.
func refCloser(target, a, b ID) bool { return a.XOR(target).Cmp(b.XOR(target)) < 0 }

func (d Distance) leadingZeros() int {
	switch {
	case d.hi != 0:
		return bits.LeadingZeros64(d.hi)
	case d.mid != 0:
		return 64 + bits.LeadingZeros64(d.mid)
	}
	return 128 + bits.LeadingZeros32(d.lo)
}

// Property: the word distance orders exactly as the byte-wise XOR-then-Cmp
// it replaces, and its leading zeros are the common prefix length.
func TestPropertyDistanceWords(t *testing.T) {
	f := func(tb, ab, bb [IDBytes]byte) bool {
		target, a, b := ID(tb), ID(ab), ID(bb)
		da, db := XORDistance(a, target), XORDistance(b, target)
		return da.Less(db) == refCloser(target, a, b) && db.Less(da) == refCloser(target, b, a) &&
			CloserXOR(target, a, b) == refCloser(target, a, b) &&
			da.leadingZeros() == CommonPrefixLen(a, target) && (da == db) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Near-equal ids: a and b each differ from one base in a single bit of a
// byte beside a word seam (bytes 7|8 and 15|16) or of the last byte, so the
// order is decided by one word alone — or by none, when the bits coincide.
func TestDistanceWordSeams(t *testing.T) {
	g := sim.NewRNG(3)
	seams := []int{0, 7, 8, 15, 16, 19}
	for round := 0; round < 50; round++ {
		target, base := RandomID(g), RandomID(g)
		for _, i := range seams {
			for _, j := range seams {
				for bi := uint(0); bi < 8; bi++ {
					for bj := uint(0); bj < 8; bj++ {
						a, b := base, base
						a[i] ^= 1 << bi
						b[j] ^= 1 << bj
						da, db := XORDistance(a, target), XORDistance(b, target)
						if da.Less(db) != refCloser(target, a, b) || db.Less(da) != refCloser(target, b, a) || (da == db) != (a == b) {
							t.Fatalf("byte %d bit %d vs byte %d bit %d: words order (%v, %v), bytes order (%v, %v)",
								i, bi, j, bj, da.Less(db), db.Less(da), refCloser(target, a, b), refCloser(target, b, a))
						}
						if lz, cpl := XORDistance(a, b).leadingZeros(), CommonPrefixLen(a, b); lz != cpl {
							t.Fatalf("byte %d bit %d vs byte %d bit %d: %d leading zeros, common prefix %d", i, bi, j, bj, lz, cpl)
						}
					}
				}
			}
		}
	}
}

// Property: a word distance's bits are those of the byte-wise XOR, out of
// range included.
func TestPropertyDistanceBit(t *testing.T) {
	f := func(ab, bb [IDBytes]byte) bool {
		a, b := ID(ab), ID(bb)
		d, x := XORDistance(a, b), a.XOR(b)
		for i := -1; i <= IDBits; i++ {
			if d.Bit(i) != x.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CPL(a,b) >= k implies the top k bits agree.
func TestPropertyCPL(t *testing.T) {
	f := func(ab, bb [IDBytes]byte) bool {
		a, b := ID(ab), ID(bb)
		cpl := CommonPrefixLen(a, b)
		for i := 0; i < cpl; i++ {
			if a.Bit(i) != b.Bit(i) {
				return false
			}
		}
		if cpl < IDBits && a.Bit(cpl) == b.Bit(cpl) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRing64(t *testing.T) {
	var id ID
	id[0] = 0x01
	if got := id.Ring64(); got != 1<<56 {
		t.Fatalf("Ring64 = %d, want %d", got, uint64(1)<<56)
	}
}

func TestStringForms(t *testing.T) {
	id := KeyID([]byte("x"))
	if len(id.String()) != 8 {
		t.Fatalf("short form length = %d, want 8 hex chars", len(id.String()))
	}
}
