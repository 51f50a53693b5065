package overlay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// The byte-wise reference every word operation is held to: an identifier
// as its 20 big-endian bytes, compared, XORed and read one byte at a time.

func refXOR(a, b [IDBytes]byte) [IDBytes]byte {
	var out [IDBytes]byte
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func refCmp(a, b [IDBytes]byte) int {
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

func refCPL(a, b [IDBytes]byte) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return IDBits
}

func refBit(a [IDBytes]byte, i int) int {
	if i < 0 || i >= IDBits {
		return 0
	}
	return int(a[i/8]>>(7-uint(i%8))) & 1
}

// refCloser is the byte-wise XOR order: XOR both with the target, then
// compare.
func refCloser(target, a, b [IDBytes]byte) bool {
	return refCmp(refXOR(a, target), refXOR(b, target)) < 0
}

// TestIDBytesRoundTrip pins the one bridge between words and bytes, and
// the byte spellings RandomID, KeyID and String are defined by.
func TestIDBytesRoundTrip(t *testing.T) {
	g := sim.NewRNG(5)
	for i := 0; i < 200; i++ {
		var b [IDBytes]byte
		for j := range b {
			b[j] = byte(g.Intn(256))
		}
		if FromBytes(b).Bytes() != b {
			t.Fatalf("FromBytes(%x).Bytes() = %x", b, FromBytes(b).Bytes())
		}
		if id := RandomID(g); FromBytes(id.Bytes()) != id {
			t.Fatalf("FromBytes(Bytes()) of %v is not the identity", id)
		}
	}
	draws, ids := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 200; i++ {
		var buf [24]byte
		for j := 0; j < len(buf); j += 8 {
			binary.BigEndian.PutUint64(buf[j:], draws.Uint64())
		}
		if got, want := RandomID(ids).Bytes(), [IDBytes]byte(buf[:IDBytes]); got != want {
			t.Fatalf("draw %d: RandomID spells %x, want the first 20 bytes of its three draws %x", i, got, want)
		}
	}
	for _, key := range []string{"", "hello", "victim-key"} {
		sum := sha256.Sum256([]byte(key))
		id := KeyID([]byte(key))
		if got := id.Bytes(); got != [IDBytes]byte(sum[:IDBytes]) {
			t.Fatalf("KeyID(%q) = %x, want sha256[:20] %x", key, got, sum[:IDBytes])
		}
		if b := id.Bytes(); id.String() != hex.EncodeToString(b[:4]) {
			t.Fatalf("KeyID(%q).String() = %s, want the hex of its first 4 bytes", key, id.String())
		}
	}
}

func TestBit(t *testing.T) {
	var b [IDBytes]byte
	b[0] = 0x80  // bit 0 set
	b[1] = 0x01  // bit 15 set
	b[15] = 0x01 // bit 127 set
	b[16] = 0x80 // bit 128 set
	b[19] = 0x01 // bit 159 set
	id := FromBytes(b)
	for _, i := range []int{0, 1, 15, 63, 64, 127, 128, 158, 159} {
		if id.Bit(i) != refBit(b, i) {
			t.Fatalf("Bit(%d) = %d, want %d", i, id.Bit(i), refBit(b, i))
		}
	}
	if id.Bit(0) != 1 || id.Bit(1) != 0 || id.Bit(15) != 1 || id.Bit(159) != 1 {
		t.Fatalf("Bit extraction wrong: %d %d %d %d", id.Bit(0), id.Bit(1), id.Bit(15), id.Bit(159))
	}
	if id.Bit(-1) != 0 || id.Bit(IDBits) != 0 {
		t.Fatal("out-of-range Bit should be 0")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	var a, b [IDBytes]byte
	if got := CommonPrefixLen(FromBytes(a), FromBytes(b)); got != IDBits {
		t.Fatalf("equal ids CPL = %d, want %d", got, IDBits)
	}
	for _, tc := range []struct{ i, bit, want int }{
		{0, 7, 0}, {0, 0, 7}, {5, 4, 43}, {8, 7, 64}, {16, 7, 128}, {16, 0, 135}, {19, 0, 159},
	} {
		b = [IDBytes]byte{}
		b[tc.i] = 1 << tc.bit
		if got := CommonPrefixLen(FromBytes(a), FromBytes(b)); got != tc.want {
			t.Fatalf("byte %d bit %d: CPL = %d, want %d", tc.i, tc.bit, got, tc.want)
		}
	}
}

func TestCmp(t *testing.T) {
	var a, b [IDBytes]byte
	if FromBytes(a).Cmp(FromBytes(b)) != 0 {
		t.Fatal("equal ids must compare 0")
	}
	for _, i := range []int{0, 7, 8, 15, 16, 19} {
		b = [IDBytes]byte{}
		b[i] = 1
		x, y := FromBytes(a), FromBytes(b)
		if x.Cmp(y) != -1 || y.Cmp(x) != 1 || !x.Less(y) || y.Less(x) {
			t.Fatalf("byte %d: Cmp ordering wrong", i)
		}
	}
}

func TestCloserXOR(t *testing.T) {
	target := KeyID([]byte("t"))
	ab, bb := target.Bytes(), target.Bytes()
	ab[19] ^= 0x01 // distance 1
	bb[0] ^= 0x80  // enormous distance
	a, b := FromBytes(ab), FromBytes(bb)
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
// d(a,b)=0 iff a==b and d is symmetric. The words XOR as the bytes do.
func TestPropertyXORMetric(t *testing.T) {
	f := func(ab, bb [IDBytes]byte) bool {
		a, b := FromBytes(ab), FromBytes(bb)
		dAB, dBA := a.XOR(b), b.XOR(a)
		if dAB != dBA || dAB.Bytes() != refXOR(ab, bb) {
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
		target, a, b := FromBytes(tb), FromBytes(ab), FromBytes(bb)
		if a == b {
			return !CloserXOR(target, a, b) && !CloserXOR(target, b, a)
		}
		return CloserXOR(target, a, b) != CloserXOR(target, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// wordsMatchBytes reports whether the word operations on the identifiers
// spelled by tb, ab and bb agree with the byte-wise reference: XOR, Cmp,
// Less, equality, CommonPrefixLen (also as a distance's leading zeros),
// CloserXOR and the distance order.
func wordsMatchBytes(tb, ab, bb [IDBytes]byte) bool {
	target, a, b := FromBytes(tb), FromBytes(ab), FromBytes(bb)
	da, db := XORDistance(a, target), XORDistance(b, target)
	return a.XOR(b).Bytes() == refXOR(ab, bb) && da.Bytes() == refXOR(ab, tb) &&
		a.Cmp(b) == refCmp(ab, bb) && a.Less(b) == (refCmp(ab, bb) < 0) && (a == b) == (ab == bb) &&
		CommonPrefixLen(a, b) == refCPL(ab, bb) && CommonPrefixLen(da, ID{}) == refCPL(ab, tb) &&
		da.Less(db) == refCloser(tb, ab, bb) && db.Less(da) == refCloser(tb, bb, ab) &&
		CloserXOR(target, a, b) == refCloser(tb, ab, bb) && (da == db) == (ab == bb)
}

// Property: the word distance orders exactly as the byte-wise XOR-then-Cmp,
// and its leading zeros are the common prefix length.
func TestPropertyDistanceWords(t *testing.T) {
	if err := quick.Check(wordsMatchBytes, &quick.Config{MaxCount: 2000}); err != nil {
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
		target, base := RandomID(g).Bytes(), RandomID(g).Bytes()
		for _, i := range seams {
			for _, j := range seams {
				for bi := uint(0); bi < 8; bi++ {
					for bj := uint(0); bj < 8; bj++ {
						a, b := base, base
						a[i] ^= 1 << bi
						b[j] ^= 1 << bj
						if !wordsMatchBytes(target, a, b) || !wordsMatchBytes(b, a, target) {
							t.Fatalf("byte %d bit %d vs byte %d bit %d: the words disagree with the bytes", i, bi, j, bj)
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
		d, x := XORDistance(FromBytes(ab), FromBytes(bb)), refXOR(ab, bb)
		for i := -1; i <= IDBits; i++ {
			if d.Bit(i) != refBit(x, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CPL(a,b) is the byte-wise prefix length, and CPL(a,b) >= k
// implies the top k bits agree.
func TestPropertyCPL(t *testing.T) {
	f := func(ab, bb [IDBytes]byte) bool {
		a, b := FromBytes(ab), FromBytes(bb)
		cpl := CommonPrefixLen(a, b)
		if cpl != refCPL(ab, bb) {
			return false
		}
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

// FuzzIDWords holds every word operation to the byte-wise reference on
// three arbitrary identifiers (each input cut or zero-padded to 20 bytes),
// every bit position included.
func FuzzIDWords(f *testing.F) {
	f.Add([]byte{}, []byte{0x80}, []byte{0, 0, 0, 0, 0, 0, 0, 1, 0x80})
	f.Add([]byte("target-target-target"), []byte("target-target-targes"), []byte("target-tarfet-target"))
	f.Fuzz(func(t *testing.T, tin, ain, bin []byte) {
		var tb, ab, bb [IDBytes]byte
		copy(tb[:], tin)
		copy(ab[:], ain)
		copy(bb[:], bin)
		if !wordsMatchBytes(tb, ab, bb) {
			t.Fatalf("target %x, a %x, b %x: the words disagree with the bytes", tb, ab, bb)
		}
		a, d := FromBytes(ab), XORDistance(FromBytes(ab), FromBytes(tb))
		for i := -1; i <= IDBits; i++ {
			if a.Bit(i) != refBit(ab, i) || d.Bit(i) != refBit(refXOR(ab, tb), i) {
				t.Fatalf("a %x, target %x: bit %d differs from the bytes", ab, tb, i)
			}
		}
	})
}

func TestStringForms(t *testing.T) {
	id := KeyID([]byte("x"))
	if len(id.String()) != 8 {
		t.Fatalf("short form length = %d, want 8 hex chars", len(id.String()))
	}
}
