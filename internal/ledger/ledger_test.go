package ledger

import (
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

func payloadTx(salt byte) *Tx { return &Tx{Payload: []byte{salt}} }

func TestTxIDDeterministicAndDistinct(t *testing.T) {
	a := payloadTx(1)
	b := payloadTx(1)
	c := payloadTx(2)
	if a.ID() != b.ID() {
		t.Fatal("identical txs must share an id")
	}
	if a.ID() == c.ID() {
		t.Fatal("distinct txs collided")
	}
	// The id layout is pinned: every Merkle root and block hash rests on it.
	id := (&Tx{Payload: []byte("rwset-1")}).ID()
	if got, want := hex.EncodeToString(id[:]), "fe961bbc4133180d3344ab36b14c5fd5e8fa79d59a2a764315af797a8da02e3f"; got != want {
		t.Fatalf("id of rwset-1 = %s, want %s", got, want)
	}
}

func TestMerkleRootKnownShapes(t *testing.T) {
	if MerkleRoot(nil) != (Hash{}) {
		t.Fatal("empty merkle root should be zero")
	}
	one := []TxID{payloadTx(1).ID()}
	if MerkleRoot(one) != one[0] {
		t.Fatal("single-leaf root must equal the leaf")
	}
	// Three leaves: the odd level duplicates its last node.
	var ids []TxID
	for _, p := range []string{"rwset-1", "rwset-2", "rwset-3"} {
		ids = append(ids, (&Tx{Payload: []byte(p)}).ID())
	}
	root := MerkleRoot(ids)
	if got, want := hex.EncodeToString(root[:]), "d044e5515fffd1ba0ea1daaca6a91d50d83fede52739044faaf61d4c744ff3c4"; got != want {
		t.Fatalf("root over rwset-1..3 = %s, want %s", got, want)
	}
}

func newTestChain(t *testing.T) (*Chain, *Block) {
	t.Helper()
	genesis := NewBlock(Hash{}, []*Tx{payloadTx(0)}, 0, 1)
	return NewChain(genesis), genesis
}

func TestChainLinearGrowth(t *testing.T) {
	c, genesis := newTestChain(t)
	prev := genesis.Hash()
	for i := 1; i <= 5; i++ {
		b := NewBlock(prev, []*Tx{payloadTx(byte(i))}, time.Duration(i)*time.Minute, 1)
		newBest, reorg, err := c.AddBlock(b)
		if err != nil {
			t.Fatalf("AddBlock %d: %v", i, err)
		}
		if !newBest || reorg {
			t.Fatalf("linear growth should extend best without reorg (i=%d)", i)
		}
		prev = b.Hash()
	}
	if c.BestHeight() != 5 {
		t.Fatalf("BestHeight = %d, want 5", c.BestHeight())
	}
	if got := len(c.BestPath()); got != 6 {
		t.Fatalf("BestPath length = %d, want 6", got)
	}
	if stale := len(c.nodes) - len(c.BestPath()); stale != 0 {
		t.Fatalf("%d stored blocks off the best chain, want 0", stale)
	}
}

func TestChainForkAndReorg(t *testing.T) {
	c, genesis := newTestChain(t)
	a1 := NewBlock(genesis.Hash(), []*Tx{payloadTx(1)}, time.Minute, 1)
	if _, _, err := c.AddBlock(a1); err != nil {
		t.Fatalf("a1: %v", err)
	}
	// Competing fork from genesis: same height, no best change (ties keep
	// first).
	b1 := NewBlock(genesis.Hash(), []*Tx{payloadTx(2)}, time.Minute, 1)
	newBest, _, err := c.AddBlock(b1)
	if err != nil {
		t.Fatalf("b1: %v", err)
	}
	if newBest {
		t.Fatal("equal-work fork must not displace the current best")
	}
	if c.BestHash() != a1.Hash() {
		t.Fatal("best should remain a1")
	}
	// Extend the fork: now it has more work, triggering a reorg.
	b2 := NewBlock(b1.Hash(), []*Tx{payloadTx(3)}, 2*time.Minute, 1)
	newBest, reorg, err := c.AddBlock(b2)
	if err != nil {
		t.Fatalf("b2: %v", err)
	}
	if !newBest || !reorg {
		t.Fatalf("fork overtake must reorg: newBest=%v reorg=%v", newBest, reorg)
	}
	if c.BestHash() != b2.Hash() {
		t.Fatal("best should be b2 after reorg")
	}
	if stale := len(c.nodes) - len(c.BestPath()); stale != 1 {
		t.Fatalf("%d stored blocks off the best chain, want 1 (a1)", stale)
	}
	if path := c.BestPath(); len(path) != 3 || path[1] != b1.Hash() {
		t.Fatal("best path should run genesis, b1, b2")
	}
}

func TestChainHeavierWorkWinsOverHeight(t *testing.T) {
	c, genesis := newTestChain(t)
	// Low-difficulty chain of length 3.
	prev := genesis.Hash()
	for i := 0; i < 3; i++ {
		b := NewBlock(prev, []*Tx{payloadTx(byte(i))}, time.Minute, 1)
		if _, _, err := c.AddBlock(b); err != nil {
			t.Fatalf("low-diff block: %v", err)
		}
		prev = b.Hash()
	}
	// Single high-difficulty block outweighs all three.
	heavy := NewBlock(genesis.Hash(), []*Tx{payloadTx(9)}, time.Minute, 10)
	newBest, reorg, err := c.AddBlock(heavy)
	if err != nil {
		t.Fatalf("heavy: %v", err)
	}
	if !newBest || !reorg {
		t.Fatal("most-work rule must prefer the heavy block")
	}
	if c.BestHeight() != 1 {
		t.Fatalf("BestHeight = %d, want 1", c.BestHeight())
	}
}

func TestChainErrors(t *testing.T) {
	c, genesis := newTestChain(t)
	orphan := NewBlock(Hash{1, 2, 3}, nil, time.Minute, 1)
	if _, _, err := c.AddBlock(orphan); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("orphan error = %v, want ErrUnknownParent", err)
	}
	dup := NewBlock(genesis.Hash(), []*Tx{payloadTx(1)}, time.Minute, 1)
	if _, _, err := c.AddBlock(dup); err != nil {
		t.Fatalf("dup first add: %v", err)
	}
	if _, _, err := c.AddBlock(dup); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate error = %v, want ErrDuplicate", err)
	}
	bad := NewBlock(genesis.Hash(), []*Tx{payloadTx(2)}, time.Minute, 1)
	bad.Txs = append(bad.Txs, payloadTx(3)) // body no longer matches root
	if _, _, err := c.AddBlock(bad); err == nil {
		t.Fatal("merkle mismatch must be rejected")
	}
}
