package ledger

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPropertyChainInvariants grows seeded random block trees (each block
// on a random stored parent — half the time one of the five newest, so
// forks run deep and overtake each other — with difficulty 1–3 and a
// unique nonce) and after every AddBlock checks Chain against an oracle
// that recomputes cumulative work from the headers:
//
//  1. every stored block's parent is stored;
//  2. along BestPath, height rises by one per block and cumulative work by
//     each header's difficulty;
//  3. the best tip has the maximum cumulative work, and on a tie the
//     earlier tip stays;
//  4. newBest never lowers the best work, and reorg is set exactly when
//     the old tip is not an ancestor of the new one;
//  5. Work of every stored block, on a fork or not, is its parent's Work
//     plus its difficulty (the oracle's value), and no block has more Work
//     than the best tip.
func TestPropertyChainInvariants(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := sim.NewRNG(seed)
		genesis := NewBlock(Hash{}, nil, 0, 1)
		c := NewChain(genesis)
		order := []Hash{genesis.Hash()}
		byHash := map[Hash]*Block{genesis.Hash(): genesis}
		work := map[Hash]float64{genesis.Hash(): genesis.Header.Difficulty}
		best := genesis.Hash() // the first block to reach the maximum work
		// isAncestor reports whether a is b or one of b's ancestors.
		isAncestor := func(a, b Hash) bool {
			for h := b; ; h = byHash[h].Header.PrevHash {
				if h == a {
					return true
				}
				if h == genesis.Hash() {
					return false
				}
			}
		}
		reorgs := 0
		for i := 1; i <= 300; i++ {
			parent := order[g.Intn(len(order))]
			if g.Bool(0.5) {
				parent = order[len(order)-1-g.Intn(min(5, len(order)))]
			}
			b := NewBlock(parent, nil, time.Duration(i)*time.Second, float64(1+g.Intn(3)))
			b.Header.Nonce = uint64(i)
			h := b.Hash()
			oldTip := c.BestHash()
			newBest, reorg, err := c.AddBlock(b)
			if err != nil {
				t.Fatalf("seed %d block %d: AddBlock: %v", seed, i, err)
			}
			order = append(order, h)
			byHash[h] = b
			work[h] = work[parent] + b.Header.Difficulty
			if work[h] > work[best] {
				best = h
			}

			// 1. Parents are stored.
			if len(c.nodes) != len(order) {
				t.Fatalf("seed %d block %d: chain stores %d blocks, %d added", seed, i, len(c.nodes), len(order))
			}
			for nh, n := range c.nodes {
				if _, ok := c.nodes[n.block.Header.PrevHash]; nh != genesis.Hash() && !ok {
					t.Fatalf("seed %d block %d: stored block %x has no stored parent", seed, i, nh[:4])
				}
			}
			// 2. Heights and cumulative work along BestPath.
			path := c.BestPath()
			if path[0] != genesis.Hash() || c.BestHeight() != uint64(len(path)-1) || path[len(path)-1] != c.BestHash() {
				t.Fatalf("seed %d block %d: BestPath of %d blocks, BestHeight %d", seed, i, len(path), c.BestHeight())
			}
			cum := 0.0
			for k, ph := range path {
				n := c.nodes[ph]
				if k > 0 && n.block.Header.PrevHash != path[k-1] {
					t.Fatalf("seed %d block %d: BestPath[%d] does not extend BestPath[%d]", seed, i, k, k-1)
				}
				cum += n.block.Header.Difficulty
				if n.height != uint64(k) || n.work != cum {
					t.Fatalf("seed %d block %d: BestPath[%d] has height %d work %g, want %d and %g", seed, i, k, n.height, n.work, k, cum)
				}
			}
			// 3. Most work, earliest on a tie.
			if c.BestHash() != best {
				t.Fatalf("seed %d block %d: best tip has work %g, want the first block with work %g", seed, i, work[c.BestHash()], work[best])
			}
			// 4. newBest and reorg.
			switch {
			case newBest != (c.BestHash() != oldTip):
				t.Fatalf("seed %d block %d: newBest = %v but the tip moved = %v", seed, i, newBest, c.BestHash() != oldTip)
			case work[c.BestHash()] < work[oldTip]:
				t.Fatalf("seed %d block %d: best work fell from %g to %g", seed, i, work[oldTip], work[c.BestHash()])
			case reorg != (newBest && !isAncestor(oldTip, c.BestHash())):
				t.Fatalf("seed %d block %d: reorg = %v, old tip an ancestor of the new = %v", seed, i, reorg, isAncestor(oldTip, c.BestHash()))
			}
			// 5. Work, along every fork.
			if w := c.Work(h); w != c.Work(parent)+b.Header.Difficulty || w != work[h] {
				t.Fatalf("seed %d block %d: Work %g, parent's %g + difficulty %g, oracle %g", seed, i, w, c.Work(parent), b.Header.Difficulty, work[h])
			}
			bestWork := c.Work(c.BestHash())
			for nh := range c.nodes {
				if c.Work(nh) > bestWork {
					t.Fatalf("seed %d block %d: block %x has Work %g, more than the best tip's %g", seed, i, nh[:4], c.Work(nh), bestWork)
				}
			}
			if reorg {
				reorgs++
			}
		}
		if reorgs == 0 {
			t.Errorf("seed %d: 300 blocks and no reorg; the tree exercises nothing", seed)
		}
	}
}
