// Package incentive models peer cooperation strategies in file-sharing
// swarms: the free-riding equilibrium of incentive-less overlays (Gnutella)
// versus BitTorrent's tit-for-tat choking, which enforces reciprocity during
// downloads.
//
// The model is a deterministic round game (one round = one choke interval).
// It supports the paper's Problem 1 claim: without incentives free riders do
// as well as contributors (so rational peers stop contributing); with
// tit-for-tat free riders are throttled to the optimistic-unchoke trickle —
// but, as the paper notes, cooperation is only enforced *during* the
// download, which is why nobody maintains open infrastructure afterwards.
package incentive

import (
	"errors"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Strategy is a peer's contribution behaviour.
type Strategy int

// The supported strategies.
const (
	// Cooperator uploads according to protocol rules while downloading and,
	// like every peer but the initial seeds, leaves on completion.
	Cooperator Strategy = iota + 1
	// FreeRider downloads but never uploads and leaves on completion.
	FreeRider
)

func (s Strategy) String() string {
	switch s {
	case Cooperator:
		return "cooperator"
	case FreeRider:
		return "free-rider"
	default:
		return "unknown"
	}
}

// SwarmConfig parameterizes a swarm run.
type SwarmConfig struct {
	// Peers is the number of downloading peers.
	Peers int
	// FreeRiderFrac is the fraction of peers that never upload.
	FreeRiderFrac float64
	// TitForTat enables reciprocity-based unchoking; when false all slots
	// are filled randomly (the incentive-less baseline).
	TitForTat bool
}

func (c SwarmConfig) withDefaults() (SwarmConfig, error) {
	if c.Peers <= 1 {
		return c, errors.New("incentive: need at least two peers")
	}
	if c.FreeRiderFrac < 0 {
		c.FreeRiderFrac = 0
	}
	if c.FreeRiderFrac > 1 {
		c.FreeRiderFrac = 1
	}
	return c, nil
}

const (
	// uploadSlots is the number of reciprocity-based unchoke slots, as in
	// mainline BitTorrent; optimisticSlots is the number of random ones.
	uploadSlots, optimisticSlots = 3, 1
	// piecesPerSlot is the upload capacity per slot per round.
	piecesPerSlot = 1
	// initialSeeds is the number of initial seeders (full copies);
	// filePieces is the number of pieces constituting the file.
	initialSeeds, filePieces = 3, 50
)

// SwarmResult summarizes a swarm run.
type SwarmResult struct {
	// CooperatorRounds and FreeRiderRounds sample the completion round of
	// each finished peer by class.
	CooperatorRounds metrics.Sample
	FreeRiderRounds  metrics.Sample
	// CooperatorsDone and FreeRidersDone count completions within the
	// horizon; Cooperators and FreeRiders are the class sizes.
	Cooperators, CooperatorsDone int
	FreeRiders, FreeRidersDone   int
	// Rounds is the number of rounds simulated.
	Rounds int
	// TotalUploads counts piece transfers by class.
	CooperatorUploads, SeedUploads int
}

// SlowdownFactor returns mean free-rider completion divided by mean
// cooperator completion (1 = no penalty). Unfinished peers are excluded.
func (r *SwarmResult) SlowdownFactor() float64 {
	if r.CooperatorRounds.Count() == 0 || r.FreeRiderRounds.Count() == 0 {
		return 0
	}
	return r.FreeRiderRounds.Mean() / r.CooperatorRounds.Mean()
}

type peer struct {
	strategy  Strategy
	pieces    int
	doneRound int   // -1 while downloading
	recvFrom  []int // pieces received from each peer last round
	recvNow   []int
}

// RunSwarm simulates the swarm for at most maxRounds rounds.
func RunSwarm(g *sim.RNG, cfg SwarmConfig, maxRounds int) (*SwarmResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = 10 * filePieces
	}
	total := cfg.Peers + initialSeeds
	peers := make([]*peer, total)
	res := &SwarmResult{}
	for i := 0; i < total; i++ {
		p := &peer{
			doneRound: -1,
			recvFrom:  make([]int, total),
			recvNow:   make([]int, total),
		}
		switch {
		case i < initialSeeds:
			p.strategy = Cooperator
			p.pieces = filePieces
			p.doneRound = 0
		case g.Float64() < cfg.FreeRiderFrac:
			p.strategy = FreeRider
			res.FreeRiders++
		default:
			p.strategy = Cooperator
			res.Cooperators++
		}
		peers[i] = p
	}

	interested := func(p *peer) bool { return p.pieces < filePieces }
	uploading := func(i int) bool {
		p := peers[i]
		if p.strategy == FreeRider {
			return false
		}
		if interested(p) {
			return p.pieces > 0 // has something to share
		}
		return i < initialSeeds // initial seeds stay; finished peers have left
	}

	for round := 1; round <= maxRounds; round++ {
		res.Rounds = round
		anyInterested := false
		for _, p := range peers {
			if interested(p) {
				anyInterested = true
				break
			}
		}
		if !anyInterested {
			break
		}
		// Each uploading peer fills its slots.
		for i, p := range peers {
			if !uploading(i) {
				continue
			}
			// Candidate receivers: interested peers other than self.
			var cands []int
			for j, q := range peers {
				if j != i && interested(q) {
					cands = append(cands, j)
				}
			}
			if len(cands) == 0 {
				continue
			}
			slots := uploadSlots + optimisticSlots
			chosen := make(map[int]bool, slots)
			randomSlots := slots
			if cfg.TitForTat && interested(p) {
				// Reciprocity: regular slots go to peers that sent us the
				// most last round; slots with no reciprocator stay choked.
				// Only the optimistic slots are filled randomly — this is
				// the mechanism that starves free riders.
				sort.SliceStable(cands, func(a, b int) bool {
					return p.recvFrom[cands[a]] > p.recvFrom[cands[b]]
				})
				for _, j := range cands {
					if len(chosen) >= uploadSlots {
						break
					}
					if p.recvFrom[j] > 0 {
						chosen[j] = true
					}
				}
				randomSlots = len(chosen) + optimisticSlots
			}
			if randomSlots > slots {
				randomSlots = slots
			}
			for attempts := 0; len(chosen) < randomSlots && attempts < 4*slots; attempts++ {
				j := cands[g.Intn(len(cands))]
				chosen[j] = true
			}
			for j := range chosen {
				q := peers[j]
				n := piecesPerSlot
				if q.pieces+n > filePieces {
					n = filePieces - q.pieces
				}
				if n <= 0 {
					continue
				}
				q.pieces += n
				q.recvNow[i] += n
				if p.doneRound == 0 && i < initialSeeds {
					res.SeedUploads += n
				} else {
					res.CooperatorUploads += n
				}
				if q.pieces >= filePieces && q.doneRound < 0 {
					q.doneRound = round
					switch q.strategy {
					case FreeRider:
						res.FreeRidersDone++
						res.FreeRiderRounds.Add(float64(round))
					case Cooperator:
						res.CooperatorsDone++
						res.CooperatorRounds.Add(float64(round))
					}
				}
			}
		}
		// Round bookkeeping: rotate reciprocity counters.
		for _, p := range peers {
			p.recvFrom, p.recvNow = p.recvNow, p.recvFrom
			for j := range p.recvNow {
				p.recvNow[j] = 0
			}
		}
	}
	return res, nil
}
