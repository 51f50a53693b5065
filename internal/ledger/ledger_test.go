package ledger

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func coinbase(owner string, value uint64, salt byte) *Tx {
	return &Tx{
		Outs:    []TxOut{{Value: value, Owner: owner}},
		Payload: []byte{salt},
	}
}

func TestTxIDDeterministicAndDistinct(t *testing.T) {
	a := coinbase("alice", 50, 1)
	b := coinbase("alice", 50, 1)
	c := coinbase("alice", 50, 2)
	if a.ID() != b.ID() {
		t.Fatal("identical txs must share an id")
	}
	if a.ID() == c.ID() {
		t.Fatal("distinct txs collided")
	}
}

func TestUTXOLifecycle(t *testing.T) {
	u := NewUTXOSet()
	cb := coinbase("alice", 50, 1)
	if err := u.ApplyCoinbase(cb, 50, 0); err != nil {
		t.Fatalf("ApplyCoinbase: %v", err)
	}
	if got := u.Balance("alice"); got != 50 {
		t.Fatalf("alice balance = %d, want 50", got)
	}
	spend := &Tx{
		Ins:  []TxIn{{Prev: Outpoint{Tx: cb.ID(), Index: 0}}},
		Outs: []TxOut{{Value: 30, Owner: "bob"}, {Value: 18, Owner: "alice"}},
	}
	fee, err := u.ApplyTx(spend)
	if err != nil {
		t.Fatalf("ApplyTx: %v", err)
	}
	if fee != 2 {
		t.Fatalf("fee = %d, want 2", fee)
	}
	if u.Balance("bob") != 30 || u.Balance("alice") != 18 {
		t.Fatalf("balances wrong: bob=%d alice=%d", u.Balance("bob"), u.Balance("alice"))
	}
	// Double spend must fail.
	if _, err := u.ApplyTx(spend); !errors.Is(err, ErrMissingInput) {
		t.Fatalf("double spend error = %v, want ErrMissingInput", err)
	}
}

func TestUTXOOverspend(t *testing.T) {
	u := NewUTXOSet()
	cb := coinbase("alice", 50, 1)
	if err := u.ApplyCoinbase(cb, 50, 0); err != nil {
		t.Fatalf("ApplyCoinbase: %v", err)
	}
	over := &Tx{
		Ins:  []TxIn{{Prev: Outpoint{Tx: cb.ID(), Index: 0}}},
		Outs: []TxOut{{Value: 51, Owner: "bob"}},
	}
	if _, err := u.ApplyTx(over); !errors.Is(err, ErrOverspend) {
		t.Fatalf("overspend error = %v, want ErrOverspend", err)
	}
}

func TestUTXODuplicateInput(t *testing.T) {
	u := NewUTXOSet()
	cb := coinbase("alice", 50, 1)
	if err := u.ApplyCoinbase(cb, 50, 0); err != nil {
		t.Fatalf("ApplyCoinbase: %v", err)
	}
	dup := &Tx{
		Ins: []TxIn{
			{Prev: Outpoint{Tx: cb.ID(), Index: 0}},
			{Prev: Outpoint{Tx: cb.ID(), Index: 0}},
		},
		Outs: []TxOut{{Value: 100, Owner: "bob"}},
	}
	if _, err := u.ApplyTx(dup); err == nil {
		t.Fatal("duplicate input within one tx must fail")
	}
}

func TestCoinbaseSubsidyCap(t *testing.T) {
	u := NewUTXOSet()
	greedy := coinbase("miner", 100, 1)
	if err := u.ApplyCoinbase(greedy, 50, 10); !errors.Is(err, ErrOverspend) {
		t.Fatalf("excess coinbase error = %v, want ErrOverspend", err)
	}
	if err := u.ApplyCoinbase(coinbase("miner", 60, 2), 50, 10); err != nil {
		t.Fatalf("subsidy+fees coinbase rejected: %v", err)
	}
	if _, err := u.ApplyTx(coinbase("miner", 1, 3)); err == nil {
		t.Fatal("ApplyTx must reject coinbase")
	}
	if err := u.ApplyCoinbase(&Tx{Ins: []TxIn{{}}, Outs: []TxOut{{Value: 1, Owner: "x"}}}, 50, 0); err == nil {
		t.Fatal("ApplyCoinbase must reject non-coinbase")
	}
}

func TestUTXOConservationProperty(t *testing.T) {
	// Property: total value never increases except via coinbase subsidy.
	f := func(splits []uint8) bool {
		u := NewUTXOSet()
		cb := coinbase("w", 1000, 9)
		if err := u.ApplyCoinbase(cb, 1000, 0); err != nil {
			return false
		}
		cur := Outpoint{Tx: cb.ID(), Index: 0}
		curVal := uint64(1000)
		for i, s := range splits {
			keep := curVal * uint64(s) / 512 // spend part, fee part
			tx := &Tx{
				Ins:     []TxIn{{Prev: cur}},
				Outs:    []TxOut{{Value: keep, Owner: "w"}},
				Payload: []byte{byte(i)},
			}
			if _, err := u.ApplyTx(tx); err != nil {
				return false
			}
			cur = Outpoint{Tx: tx.ID(), Index: 0}
			curVal = keep
			if u.TotalValue() > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUTXOClone(t *testing.T) {
	u := NewUTXOSet()
	if err := u.ApplyCoinbase(coinbase("a", 10, 1), 10, 0); err != nil {
		t.Fatalf("ApplyCoinbase: %v", err)
	}
	cp := u.Clone()
	if err := cp.ApplyCoinbase(coinbase("b", 5, 2), 5, 0); err != nil {
		t.Fatalf("ApplyCoinbase on clone: %v", err)
	}
	if u.Len() == cp.Len() {
		t.Fatal("clone is not independent")
	}
}

func TestMerkleRootKnownShapes(t *testing.T) {
	if MerkleRoot(nil) != (Hash{}) {
		t.Fatal("empty merkle root should be zero")
	}
	one := []TxID{coinbase("a", 1, 1).ID()}
	if MerkleRoot(one) != one[0] {
		t.Fatal("single-leaf root must equal the leaf")
	}
}

func TestMerkleProofs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		ids := make([]TxID, n)
		for i := range ids {
			ids[i] = coinbase("x", uint64(i+1), byte(i)).ID()
		}
		root := MerkleRoot(ids)
		for i := 0; i < n; i++ {
			proof, err := Prove(ids, i)
			if err != nil {
				t.Fatalf("Prove(n=%d, i=%d): %v", n, i, err)
			}
			if !proof.Verify(root, ids[i]) {
				t.Fatalf("proof failed for n=%d i=%d", n, i)
			}
			// A proof must not verify a different leaf.
			other := coinbase("y", 999, 99).ID()
			if proof.Verify(root, other) {
				t.Fatalf("proof verified wrong leaf for n=%d i=%d", n, i)
			}
		}
	}
	if _, err := Prove(nil, 0); err == nil {
		t.Fatal("Prove on empty set should error")
	}
}

// Property: Merkle proofs verify for every leaf of any tree.
func TestPropertyMerkle(t *testing.T) {
	f := func(seed uint32, size uint8) bool {
		n := int(size%32) + 1
		ids := make([]TxID, n)
		for i := range ids {
			ids[i] = (&Tx{Payload: []byte{byte(seed), byte(seed >> 8), byte(i)}}).ID()
		}
		root := MerkleRoot(ids)
		idx := int(seed) % n
		proof, err := Prove(ids, idx)
		if err != nil {
			return false
		}
		return proof.Verify(root, ids[idx])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newTestChain(t *testing.T) (*Chain, *Block) {
	t.Helper()
	genesis := NewBlock(Hash{}, []*Tx{coinbase("satoshi", 50, 0)}, 0, 1)
	return NewChain(genesis), genesis
}

func TestChainLinearGrowth(t *testing.T) {
	c, genesis := newTestChain(t)
	prev := genesis.Hash()
	for i := 1; i <= 5; i++ {
		b := NewBlock(prev, []*Tx{coinbase("m", 50, byte(i))}, time.Duration(i)*time.Minute, 1)
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
	a1 := NewBlock(genesis.Hash(), []*Tx{coinbase("a", 50, 1)}, time.Minute, 1)
	if _, _, err := c.AddBlock(a1); err != nil {
		t.Fatalf("a1: %v", err)
	}
	// Competing fork from genesis: same height, no best change (ties keep
	// first).
	b1 := NewBlock(genesis.Hash(), []*Tx{coinbase("b", 50, 2)}, time.Minute, 1)
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
	b2 := NewBlock(b1.Hash(), []*Tx{coinbase("b", 50, 3)}, 2*time.Minute, 1)
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
	if got := c.Confirmations(b1.Hash()); got != 2 {
		t.Fatalf("Confirmations(b1) = %d, want 2", got)
	}
	if got := c.Confirmations(a1.Hash()); got != 0 {
		t.Fatalf("Confirmations(a1) = %d, want 0 (off best chain)", got)
	}
}

func TestChainHeavierWorkWinsOverHeight(t *testing.T) {
	c, genesis := newTestChain(t)
	// Low-difficulty chain of length 3.
	prev := genesis.Hash()
	for i := 0; i < 3; i++ {
		b := NewBlock(prev, []*Tx{coinbase("l", 50, byte(i))}, time.Minute, 1)
		if _, _, err := c.AddBlock(b); err != nil {
			t.Fatalf("low-diff block: %v", err)
		}
		prev = b.Hash()
	}
	// Single high-difficulty block outweighs all three.
	heavy := NewBlock(genesis.Hash(), []*Tx{coinbase("h", 50, 9)}, time.Minute, 10)
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
	dup := NewBlock(genesis.Hash(), []*Tx{coinbase("d", 50, 1)}, time.Minute, 1)
	if _, _, err := c.AddBlock(dup); err != nil {
		t.Fatalf("dup first add: %v", err)
	}
	if _, _, err := c.AddBlock(dup); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate error = %v, want ErrDuplicate", err)
	}
	bad := NewBlock(genesis.Hash(), []*Tx{coinbase("x", 50, 2)}, time.Minute, 1)
	bad.Txs = append(bad.Txs, coinbase("tamper", 1, 3)) // body no longer matches root
	if _, _, err := c.AddBlock(bad); err == nil {
		t.Fatal("merkle mismatch must be rejected")
	}
}

func TestConfirmationsUnknown(t *testing.T) {
	c, _ := newTestChain(t)
	if c.Confirmations(Hash{9}) != 0 {
		t.Fatal("unknown block must have 0 confirmations")
	}
}
