// Package pow simulates permissionless proof-of-work blockchains at the
// network level: Poisson block discovery over a miner population, per-miner
// chain views with propagation delay, natural forks and stale blocks,
// difficulty retargeting, selfish mining, and double-spend races.
//
// It supports the paper's claims on permissionless performance (E6 and E7),
// the decentralization/throughput tension behind Buterin's trilemma (E8),
// the broken incentive compatibility shown by Eyal & Sirer (E9), and
// Nakamoto's confirmation-security arithmetic (E17).
package pow

import (
	"errors"
	"time"

	"repro/internal/ledger"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Params configures a mining network simulation.
type Params struct {
	// BlockInterval is the target average time between blocks.
	BlockInterval time.Duration
	// BlockSize is the block size in bytes (drives propagation delay).
	BlockSize int
	// AvgTxSize is the mean transaction size; BlockSize/AvgTxSize is the
	// per-block transaction capacity.
	AvgTxSize int
	// Propagation draws the per-receiver one-way block propagation delay.
	// If nil, a default of median ~2s per MB with lognormal-ish spread is
	// used (the Decker–Wattenhofer measurement regime). Calibrate against
	// the gossip package for message-level fidelity.
	Propagation func(g *sim.RNG, size int) time.Duration
	// RetargetWindow is the number of blocks between difficulty
	// adjustments (0 disables retargeting).
	RetargetWindow int
	// InitialDifficulty is the expected number of hashes per block at
	// start. With TotalHashrate H and difficulty D, blocks arrive at rate
	// H/D.
	InitialDifficulty float64
}

func (p Params) withDefaults() (Params, error) {
	if p.BlockInterval <= 0 {
		return p, errors.New("pow: BlockInterval must be positive")
	}
	if p.BlockSize <= 0 {
		p.BlockSize = 1_000_000
	}
	if p.AvgTxSize <= 0 {
		p.AvgTxSize = 400
	}
	if p.Propagation == nil {
		p.Propagation = DefaultPropagation
	}
	if p.InitialDifficulty <= 0 {
		p.InitialDifficulty = 1
	}
	return p, nil
}

// DefaultPropagation models block relay delay: a per-hop base latency plus
// bandwidth-bound transfer, with multiplicative jitter. Roughly 2 s median
// per MB — the order measured for Bitcoin before compact blocks.
func DefaultPropagation(g *sim.RNG, size int) time.Duration {
	base := 200 * time.Millisecond
	transfer := time.Duration(float64(size) / 500_000 * float64(time.Second)) // 4 Mbit/s effective
	return g.Jitter(base+transfer, 0.5)
}

// Miner is one mining participant (a solo miner or a pool).
type Miner struct {
	// ID indexes the miner.
	ID int
	// Hashrate is in hashes/second (arbitrary consistent units).
	Hashrate float64

	tipHash ledger.Hash
	tipWork float64

	// Mined counts blocks found; Stale counts those off the final best
	// chain (filled by Finalize).
	Mined int
	Stale int
}

// Network is a PoW mining simulation.
type Network struct {
	sim    *sim.Sim
	rng    *sim.RNG
	params Params

	miners []*Miner
	chain  *ledger.Chain

	difficulty float64
	totalHash  float64
	nextFind   sim.Handle

	blockMiner map[ledger.Hash]int     // block -> miner id
	workCache  map[ledger.Hash]float64 // block -> cumulative work
	found      int

	// WAN-backed relay (NewNetworkOverNet); nil means the abstract
	// Params.Propagation draw is used instead.
	net    *netmodel.Net
	addrs  []netmodel.NodeID
	byAddr map[netmodel.NodeID]*Miner

	// onBlock, when an in-package test sets it, observes every block found
	// (before propagation).
	onBlock func(b *ledger.Block, miner *Miner)
}

// NewNetwork creates a mining network with the given per-miner hashrates.
func NewNetwork(s *sim.Sim, params Params, hashrates []float64) (*Network, error) {
	params, err := params.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(hashrates) == 0 {
		return nil, errors.New("pow: need at least one miner")
	}
	genesis := ledger.NewBlock(ledger.Hash{}, nil, 0, params.InitialDifficulty)
	nw := &Network{
		sim:        s,
		rng:        s.Stream("pow"),
		params:     params,
		chain:      ledger.NewChain(genesis),
		difficulty: params.InitialDifficulty,
		blockMiner: make(map[ledger.Hash]int),
		workCache:  make(map[ledger.Hash]float64),
	}
	gh := genesis.Hash()
	nw.workCache[gh] = params.InitialDifficulty
	for i, h := range hashrates {
		if h < 0 {
			return nil, errors.New("pow: negative hashrate")
		}
		nw.miners = append(nw.miners, &Miner{
			ID:       i,
			Hashrate: h,
			tipHash:  gh,
			tipWork:  params.InitialDifficulty,
		})
		nw.totalHash += h
	}
	if nw.totalHash <= 0 {
		return nil, errors.New("pow: zero total hashrate")
	}
	return nw, nil
}

// NewNetworkOverNet creates a mining network whose block relay rides the
// shared WAN transport instead of the abstract Propagation draw: addrs[i]
// is miner i's address on nm, and each found block is broadcast from the
// finder over the transport, so fork and stale-block rates respond to
// regional miner placement, access bandwidth, loss, and partition windows.
// The Net must be dedicated to the miner population — Broadcast blankets
// every node attached to it, so addrs must cover the whole Net (enforced
// here; nodes attached later are ignored by the relay).
func NewNetworkOverNet(s *sim.Sim, nm *netmodel.Net, addrs []netmodel.NodeID, params Params, hashrates []float64) (*Network, error) {
	if nm == nil {
		return nil, errors.New("pow: nil transport")
	}
	if len(addrs) != len(hashrates) {
		return nil, errors.New("pow: need one address per miner")
	}
	if len(addrs) != nm.Size() {
		return nil, errors.New("pow: transport must be dedicated to the miners (one address per attached node)")
	}
	nw, err := NewNetwork(s, params, hashrates)
	if err != nil {
		return nil, err
	}
	nw.net = nm
	nw.addrs = append([]netmodel.NodeID(nil), addrs...)
	nw.byAddr = make(map[netmodel.NodeID]*Miner, len(addrs))
	for i, addr := range addrs {
		if _, dup := nw.byAddr[addr]; dup {
			return nil, errors.New("pow: duplicate miner address")
		}
		nw.byAddr[addr] = nw.miners[i]
	}
	return nw, nil
}

// Chain returns the global block tree (all miners' blocks).
func (nw *Network) Chain() *ledger.Chain { return nw.chain }

// Difficulty returns the current difficulty.
func (nw *Network) Difficulty() float64 { return nw.difficulty }

// SetHashrate updates a miner's hashrate (e.g. for growth schedules) and
// reschedules the discovery process.
func (nw *Network) SetHashrate(id int, hashrate float64) {
	if id < 0 || id >= len(nw.miners) || hashrate < 0 {
		return
	}
	nw.totalHash += hashrate - nw.miners[id].Hashrate
	nw.miners[id].Hashrate = hashrate
	if !nw.nextFind.IsZero() {
		nw.nextFind.Cancel()
		nw.scheduleNext()
	}
}

// TotalHashrate returns the current network hashrate.
func (nw *Network) TotalHashrate() float64 { return nw.totalHash }

// Start begins the mining process. Run the simulator to advance it.
func (nw *Network) Start() { nw.scheduleNext() }

// Stop halts block discovery.
func (nw *Network) Stop() {
	nw.nextFind.Cancel()
	nw.nextFind = sim.Handle{}
}

// scheduleNext draws the time to the next network-wide block discovery.
// Exponential inter-arrival with rate totalHash/difficulty; memorylessness
// makes cancel-and-redraw on parameter changes exact.
func (nw *Network) scheduleNext() {
	rate := nw.totalHash / nw.difficulty // blocks per second
	if rate <= 0 {
		return
	}
	mean := time.Duration(float64(time.Second) / rate)
	nw.nextFind = nw.sim.After(nw.rng.ExpDuration(mean), nw.blockFound)
}

// blockFound attributes the discovery to a miner proportionally to hashrate
// and extends that miner's current tip.
func (nw *Network) blockFound() {
	target := nw.rng.Float64() * nw.totalHash
	var miner *Miner
	var cum float64
	for _, m := range nw.miners {
		cum += m.Hashrate
		if target < cum {
			miner = m
			break
		}
	}
	if miner == nil {
		miner = nw.miners[len(nw.miners)-1]
	}
	b := ledger.NewBlock(miner.tipHash, nil, nw.sim.Now(), nw.difficulty)
	b.Header.Nonce = uint64(nw.found)
	nw.found++
	miner.Mined++
	h := b.Hash()
	nw.blockMiner[h] = miner.ID
	nw.workCache[h] = nw.workCache[b.Header.PrevHash] + b.Header.Difficulty
	newBest, _, err := nw.chain.AddBlock(b)
	if err == nil && newBest && nw.params.RetargetWindow > 0 {
		nw.maybeRetarget()
	}
	// The finder adopts its own block instantly.
	work := nw.workOf(h)
	if work > miner.tipWork {
		miner.tipHash, miner.tipWork = h, work
	}
	if nw.onBlock != nil {
		nw.onBlock(b, miner)
	}
	// Propagate to all other miners: over the WAN transport when attached
	// (partitions, loss and bandwidth apply), otherwise with the abstract
	// per-receiver Propagation draw.
	if nw.net != nil {
		nw.net.Broadcast(nw.addrs[miner.ID], nw.params.BlockSize, func(to netmodel.NodeID) {
			m := nw.byAddr[to]
			if m == nil {
				return // a non-miner node attached after construction
			}
			if work > m.tipWork {
				m.tipHash, m.tipWork = h, work
			}
		})
	} else {
		for _, m := range nw.miners {
			if m == miner {
				continue
			}
			m := m
			delay := nw.params.Propagation(nw.rng, nw.params.BlockSize)
			nw.sim.After(delay, func() {
				if work > m.tipWork {
					m.tipHash, m.tipWork = h, work
				}
			})
		}
	}
	nw.scheduleNext()
}

// workOf returns a block's cumulative work.
func (nw *Network) workOf(h ledger.Hash) float64 { return nw.workCache[h] }

// maybeRetarget adjusts difficulty when the best height crosses a window
// boundary, like Bitcoin's 2016-block rule, clamped to [1/4, 4].
func (nw *Network) maybeRetarget() {
	height := nw.chain.BestHeight()
	window := uint64(nw.params.RetargetWindow)
	if height == 0 || height%window != 0 {
		return
	}
	tip, _ := nw.chain.Block(nw.chain.BestHash())
	cur := tip
	for i := uint64(0); i < window; i++ {
		parent, ok := nw.chain.Block(cur.Header.PrevHash)
		if !ok {
			return
		}
		cur = parent
	}
	actual := tip.Header.Time - cur.Header.Time
	expected := time.Duration(window) * nw.params.BlockInterval
	if actual <= 0 {
		return
	}
	factor := float64(expected) / float64(actual)
	if factor > 4 {
		factor = 4
	}
	if factor < 0.25 {
		factor = 0.25
	}
	nw.difficulty *= factor
	// No rescheduling here: maybeRetarget only runs inside blockFound,
	// which schedules the next discovery after it returns.
}

// Stats summarizes a mining run.
type Stats struct {
	// BlocksFound is the total number of blocks found.
	BlocksFound int
	// BestHeight is the final best-chain height.
	BestHeight uint64
	// StaleBlocks and StaleRate describe blocks off the best chain.
	StaleBlocks int
	StaleRate   float64
	// MeanInterval is the observed mean time between best-chain blocks.
	MeanInterval time.Duration
	// TPS is effective transactions per second given block capacity and
	// the observed best-chain rate.
	TPS float64
	// MinerShares maps miner id to its share of best-chain blocks.
	MinerShares []float64
}

// Finalize computes run statistics and fills each miner's Stale count.
func (nw *Network) Finalize() Stats {
	st := Stats{
		BlocksFound: nw.found,
		BestHeight:  nw.chain.BestHeight(),
	}
	onBest := make(map[ledger.Hash]bool, len(nw.blockMiner))
	for _, h := range nw.chain.BestPath() {
		onBest[h] = true
	}
	wins := make([]int, len(nw.miners))
	for h, minerID := range nw.blockMiner {
		if onBest[h] {
			wins[minerID]++
		} else {
			nw.miners[minerID].Stale++
			st.StaleBlocks++
		}
	}
	if nw.found > 0 {
		st.StaleRate = float64(st.StaleBlocks) / float64(nw.found)
	}
	if st.BestHeight > 0 {
		tip, _ := nw.chain.Block(nw.chain.BestHash())
		st.MeanInterval = time.Duration(float64(tip.Header.Time) / float64(st.BestHeight))
		txPerBlock := float64(nw.params.BlockSize) / float64(nw.params.AvgTxSize)
		if st.MeanInterval > 0 {
			st.TPS = txPerBlock / st.MeanInterval.Seconds()
		}
	}
	st.MinerShares = make([]float64, len(nw.miners))
	if best := int(st.BestHeight); best > 0 {
		for i, w := range wins {
			st.MinerShares[i] = float64(w) / float64(best)
		}
	}
	return st
}
