package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// BlockHeader is the hash-chained portion of a block.
type BlockHeader struct {
	// PrevHash links to the parent block (zero for genesis).
	PrevHash Hash
	// MerkleRoot commits to the block's transactions.
	MerkleRoot Hash
	// Time is the block's virtual timestamp.
	Time time.Duration
	// Difficulty is the expected number of hash evaluations to find this
	// block; cumulative difficulty ("work") selects the best chain.
	Difficulty float64
	// Nonce is the proof-of-work witness (abstract in simulation).
	Nonce uint64
}

// Hash returns the header's content hash.
func (h *BlockHeader) Hash() Hash {
	hash := sha256.New()
	hash.Write(h.PrevHash[:])
	hash.Write(h.MerkleRoot[:])
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(h.Time))
	binary.BigEndian.PutUint64(buf[8:16], uint64(h.Difficulty))
	binary.BigEndian.PutUint64(buf[16:], h.Nonce)
	hash.Write(buf[:])
	var out Hash
	copy(out[:], hash.Sum(nil))
	return out
}

// Block is a header plus its transactions.
type Block struct {
	Header BlockHeader
	Txs    []*Tx
}

// Hash returns the block's identity (the header hash).
func (b *Block) Hash() Hash { return b.Header.Hash() }

// Size returns the modelled wire size in bytes.
func (b *Block) Size() int {
	size := 88 // header + counts
	for _, tx := range b.Txs {
		size += tx.Size()
	}
	return size
}

// NewBlock assembles a block over the given parent with a correct Merkle
// root.
func NewBlock(prev Hash, txs []*Tx, at time.Duration, difficulty float64) *Block {
	ids := make([]TxID, len(txs))
	for i, tx := range txs {
		ids[i] = tx.ID()
	}
	return &Block{
		Header: BlockHeader{
			PrevHash:   prev,
			MerkleRoot: MerkleRoot(ids),
			Time:       at,
			Difficulty: difficulty,
		},
		Txs: txs,
	}
}

// CheckMerkle verifies the header's Merkle commitment matches the body.
func (b *Block) CheckMerkle() error {
	ids := make([]TxID, len(b.Txs))
	for i, tx := range b.Txs {
		ids[i] = tx.ID()
	}
	if MerkleRoot(ids) != b.Header.MerkleRoot {
		return errors.New("ledger: merkle root mismatch")
	}
	return nil
}

// blockNode is Chain's bookkeeping for one block.
type blockNode struct {
	block  *Block
	parent *blockNode
	height uint64
	work   float64 // cumulative difficulty
}

// Chain is a block tree with most-work tip selection. It tracks every fork
// and reports reorgs when a side chain overtakes the best chain.
type Chain struct {
	nodes   map[Hash]*blockNode
	genesis Hash
	best    *blockNode
	stale   int
}

// Chain errors.
var (
	ErrUnknownParent = errors.New("ledger: unknown parent block")
	ErrDuplicate     = errors.New("ledger: duplicate block")
)

// NewChain creates a chain rooted at the given genesis block.
func NewChain(genesis *Block) *Chain {
	n := &blockNode{block: genesis, work: genesis.Header.Difficulty}
	c := &Chain{nodes: make(map[Hash]*blockNode), genesis: genesis.Hash(), best: n}
	c.nodes[c.genesis] = n
	return c
}

// BestHash returns the current best tip.
func (c *Chain) BestHash() Hash { return c.best.block.Hash() }

// BestHeight returns the height of the best tip (genesis = 0).
func (c *Chain) BestHeight() uint64 { return c.best.height }

// Block returns a stored block.
func (c *Chain) Block(h Hash) (*Block, bool) {
	n, ok := c.nodes[h]
	if !ok {
		return nil, false
	}
	return n.block, true
}

// AddBlock attaches a block to the tree. It returns whether the best tip
// changed and whether that change was a reorg (the previous tip is no longer
// an ancestor of the new tip).
func (c *Chain) AddBlock(b *Block) (newBest, reorg bool, err error) {
	h := b.Hash()
	if _, dup := c.nodes[h]; dup {
		return false, false, fmt.Errorf("%w: %v", ErrDuplicate, h)
	}
	parent, ok := c.nodes[b.Header.PrevHash]
	if !ok {
		return false, false, fmt.Errorf("%w: %v", ErrUnknownParent, b.Header.PrevHash)
	}
	if err := b.CheckMerkle(); err != nil {
		return false, false, err
	}
	n := &blockNode{
		block:  b,
		parent: parent,
		height: parent.height + 1,
		work:   parent.work + b.Header.Difficulty,
	}
	c.nodes[h] = n
	if n.work > c.best.work {
		prev := c.best
		c.best = n
		return true, !c.isAncestor(prev, n), nil
	}
	return false, false, nil
}

// isAncestor reports whether a is an ancestor of (or equal to) b.
func (c *Chain) isAncestor(a, b *blockNode) bool {
	for n := b; n != nil; n = n.parent {
		if n == a {
			return true
		}
	}
	return false
}

// BestPath returns the best chain's block hashes from genesis to tip.
func (c *Chain) BestPath() []Hash {
	var rev []Hash
	for n := c.best; n != nil; n = n.parent {
		rev = append(rev, n.block.Hash())
	}
	out := make([]Hash, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Confirmations returns how many blocks deep h is under the best tip
// (tip = 1), or 0 if h is not on the best chain.
func (c *Chain) Confirmations(h Hash) uint64 {
	target, ok := c.nodes[h]
	if !ok {
		return 0
	}
	for n := c.best; n != nil; n = n.parent {
		if n == target {
			return c.best.height - target.height + 1
		}
	}
	return 0
}
