package permissioned

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/ledger"
	"repro/internal/netmodel"
	"repro/internal/raft"
	"repro/internal/sim"
)

// Policy is a k-of-n endorsement policy over a channel's organizations.
type Policy struct {
	// Required is how many distinct member organizations must endorse.
	Required int
}

// Endorsement is one organization's signature over a read/write-set digest.
type Endorsement struct {
	Org string
	Sig []byte
}

// Envelope is an endorsed transaction on its way through ordering.
type Envelope struct {
	ID           int
	Channel      string
	Creator      string
	RWSet        *RWSet
	Endorsements []Endorsement
	SubmittedAt  time.Duration
}

// Size returns the modelled wire size of the envelope.
func (e *Envelope) Size() int {
	size := 128
	for _, r := range e.RWSet.Reads {
		size += len(r.Key) + 12
	}
	for _, w := range e.RWSet.Writes {
		size += len(w.Key) + len(w.Value) + 4
	}
	size += len(e.Endorsements) * 80
	return size
}

// TxResult reports a transaction's fate to its submitter.
type TxResult struct {
	// Valid is true if the transaction committed; false if it was
	// invalidated (MVCC conflict or policy failure).
	Valid bool
	// Latency is submit-to-commit time at the creator's peer.
	Latency time.Duration
	// Block is the height of the committing block.
	Block uint64
}

// Config parameterizes the network.
type Config struct {
	// BlockSize is the max envelopes per block.
	BlockSize int
	// BlockTimeout cuts a non-empty partial block.
	BlockTimeout time.Duration
}

// ordererNodes is the size of the Raft ordering cluster, which runs in
// Europe. An envelope the ordering service cannot take (no leader, full
// queue) is resubmitted after netmodel.DefaultRetryDelay.
const ordererNodes = 3

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 50
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 200 * time.Millisecond
	}
	return c
}

// Org is one member organization with a peer node.
type Org struct {
	Name     string
	Identity *Identity
	Peer     netmodel.NodeID
	Region   netmodel.Region
}

// Channel is an isolated ledger shared by a subset of organizations — the
// Fabric mechanism that confines consensus to interested parties.
type Channel struct {
	name   string
	orgs   []string
	policy Policy
	state  *State
	chain  *ledger.Chain
	ccs    map[string]Chaincode

	batch []*Envelope

	committedTx int
	invalidTx   int
	peerWork    map[string]int64
}

// Height returns the chain height.
func (ch *Channel) Height() uint64 { return ch.chain.BestHeight() }

// Committed and Invalid return transaction counts by validation outcome.
func (ch *Channel) Committed() int { return ch.committedTx }

// Invalid returns the number of transactions invalidated at validation.
func (ch *Channel) Invalid() int { return ch.invalidTx }

// PeerWork returns envelopes validated per member organization.
func (ch *Channel) PeerWork() map[string]int64 {
	out := make(map[string]int64, len(ch.peerWork))
	for k, v := range ch.peerWork {
		out[k] = v
	}
	return out
}

// State exposes the channel's world state (for queries in examples/tests).
func (ch *Channel) State() *State { return ch.state }

// Network is a permissioned blockchain deployment.
type Network struct {
	sim *sim.Sim
	net *netmodel.Net
	cfg Config
	msp *MSP
	rng *sim.RNG

	orgs     map[string]*Org
	channels map[string]*Channel

	orderer   *raft.Cluster
	pending   map[int]*pendingTx
	nextEnvID int
	started   bool

	// accepted counts the endorsements a creator's peer has verified and
	// no block has validated yet, so validate verifies each only once:
	// Bitcoin Core's signature cache. An entry lives while its envelope is
	// in flight; only an endorsement altered on the way would leave one.
	accepted map[sigKey]int
}

// sigKey names one signature check by its exact inputs: the org whose
// enrolled key verifies it, the digest and the signature bytes.
type sigKey struct {
	org    string
	digest [sha256.Size]byte
	sig    [ed25519.SignatureSize]byte
}

// keyOf returns the key of a check, and false for inputs no valid
// signature over a read/write-set digest has.
func keyOf(org string, digest, sig []byte) (sigKey, bool) {
	k := sigKey{org: org}
	if len(digest) != len(k.digest) || len(sig) != len(k.sig) {
		return k, false
	}
	copy(k.digest[:], digest)
	copy(k.sig[:], sig)
	return k, true
}

// accept records that the creator's peer verified sig over digest with
// org's key.
func (nw *Network) accept(org string, digest, sig []byte) {
	if k, ok := keyOf(org, digest, sig); ok {
		nw.accepted[k]++
	}
}

// consume reports whether the creator's peer accepted exactly this check,
// taking its record.
func (nw *Network) consume(org string, digest, sig []byte) bool {
	k, ok := keyOf(org, digest, sig)
	if !ok || nw.accepted[k] == 0 {
		return false
	}
	if nw.accepted[k]--; nw.accepted[k] == 0 {
		delete(nw.accepted, k)
	}
	return true
}

type pendingTx struct {
	env  *Envelope
	done func(TxResult)
}

// NewNetwork creates a network with a Raft ordering service.
func NewNetwork(s *sim.Sim, nm *netmodel.Net, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	ord, err := raft.NewCluster(s, nm, ordererNodes, netmodel.Europe)
	if err != nil {
		return nil, fmt.Errorf("ordering service: %w", err)
	}
	nw := &Network{
		sim:      s,
		net:      nm,
		cfg:      cfg,
		msp:      NewMSP(),
		rng:      s.Stream("permissioned"),
		orgs:     make(map[string]*Org),
		channels: make(map[string]*Channel),
		orderer:  ord,
		pending:  make(map[int]*pendingTx),
		accepted: make(map[sigKey]int),
	}
	ord.OnApply(func(node, index int, req raft.Request) {
		// Only the leader's application drives block cutting.
		if leader := ord.Leader(); leader == nil || leader.ID() != node {
			return
		}
		nw.onOrdered(req.ID)
	})
	return nw, nil
}

// AddOrg enrolls an organization with a peer in the given region.
func (nw *Network) AddOrg(name string, region netmodel.Region) (*Org, error) {
	if _, dup := nw.orgs[name]; dup {
		return nil, fmt.Errorf("permissioned: org %q already exists", name)
	}
	id, err := nw.msp.Enroll(nw.rng, name)
	if err != nil {
		return nil, err
	}
	org := &Org{
		Name:     name,
		Identity: id,
		Peer:     nw.net.AddNode(region, 0),
		Region:   region,
	}
	nw.orgs[name] = org
	return org, nil
}

// CreateChannel creates a channel among member orgs with the given policy.
func (nw *Network) CreateChannel(name string, members []string, policy Policy) (*Channel, error) {
	if _, dup := nw.channels[name]; dup {
		return nil, fmt.Errorf("permissioned: channel %q already exists", name)
	}
	if len(members) < 1 {
		return nil, errors.New("permissioned: channel needs members")
	}
	for _, m := range members {
		if _, ok := nw.orgs[m]; !ok {
			return nil, fmt.Errorf("permissioned: unknown org %q", m)
		}
	}
	if policy.Required <= 0 || policy.Required > len(members) {
		return nil, fmt.Errorf("permissioned: policy requires %d of %d members", policy.Required, len(members))
	}
	genesis := ledger.NewBlock(ledger.Hash{}, nil, nw.sim.Now(), 1)
	ch := &Channel{
		name:     name,
		orgs:     append([]string(nil), members...),
		policy:   policy,
		state:    NewState(),
		chain:    ledger.NewChain(genesis),
		ccs:      make(map[string]Chaincode),
		peerWork: make(map[string]int64),
	}
	nw.channels[name] = ch
	return ch, nil
}

// InstallChaincode registers chaincode on a channel.
func (nw *Network) InstallChaincode(channel, name string, cc Chaincode) error {
	ch, ok := nw.channels[channel]
	if !ok {
		return fmt.Errorf("permissioned: unknown channel %q", channel)
	}
	if cc == nil {
		return errors.New("permissioned: nil chaincode")
	}
	ch.ccs[name] = cc
	return nil
}

// Channel returns a channel by name.
func (nw *Network) Channel(name string) (*Channel, bool) {
	ch, ok := nw.channels[name]
	return ch, ok
}

// Start launches the ordering service and block cutters. Run the simulator
// afterwards; the first leader election takes a few election timeouts.
func (nw *Network) Start() error {
	if nw.started {
		return errors.New("permissioned: already started")
	}
	nw.started = true
	nw.orderer.Start()
	// Iterate channels in sorted-name order: each Every call assigns kernel
	// sequence numbers, and same-instant block cuts tie-break by sequence,
	// so map order here would leak into the event schedule.
	names := make([]string, 0, len(nw.channels))
	for name := range nw.channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ch := nw.channels[name]
		if _, err := nw.sim.Every(nw.cfg.BlockTimeout, func() { nw.cutBlock(ch) }); err != nil {
			return err
		}
	}
	return nil
}

// Submit runs the execute-order-validate pipeline for one transaction,
// invoking done exactly once with the outcome. Errors are returned for
// malformed submissions; runtime invalidation is reported via TxResult.
func (nw *Network) Submit(channel, creator, chaincode string, args []string, done func(TxResult)) error {
	ch, ok := nw.channels[channel]
	if !ok {
		return fmt.Errorf("permissioned: unknown channel %q", channel)
	}
	corg, ok := nw.orgs[creator]
	if !ok {
		return fmt.Errorf("permissioned: unknown org %q", creator)
	}
	if !slices.Contains(ch.orgs, creator) {
		return fmt.Errorf("permissioned: org %q is not a member of %q", creator, channel)
	}
	cc, ok := ch.ccs[chaincode]
	if !ok {
		return fmt.Errorf("permissioned: chaincode %q not installed on %q", chaincode, channel)
	}
	// Phase 1 — execute: endorsers simulate the chaincode against their
	// current state and sign the resulting read/write set. All honest
	// endorsers produce the same set, so it is computed once.
	rw, err := Execute(ch.state, cc, args)
	if err != nil {
		return err
	}
	env := &Envelope{
		ID:          nw.nextEnvID,
		Channel:     channel,
		Creator:     creator,
		RWSet:       rw,
		SubmittedAt: nw.sim.Now(),
	}
	nw.nextEnvID++
	digest := rw.Digest()

	endorsers := make([]*Org, 0, ch.policy.Required)
	endorsers = append(endorsers, corg)
	for _, name := range ch.orgs {
		if len(endorsers) >= ch.policy.Required {
			break
		}
		if name != creator {
			endorsers = append(endorsers, nw.orgs[name])
		}
	}
	remaining := len(endorsers)
	propSize := env.Size()
	for _, e := range endorsers {
		e := e
		// Proposal to the endorser and signed response back.
		nw.net.Send(corg.Peer, e.Peer, propSize, func() {
			sig := e.Identity.Sign(digest)
			nw.net.Send(e.Peer, corg.Peer, 80, func() {
				if !e.Identity.Verify(digest, sig) {
					return // never happens for honest endorsers
				}
				nw.accept(e.Name, digest, sig)
				env.Endorsements = append(env.Endorsements, Endorsement{Org: e.Name, Sig: sig})
				remaining--
				if remaining == 0 {
					nw.sendToOrderer(corg, env, done)
				}
			})
		})
	}
	return nil
}

// sendToOrderer ships the endorsed envelope to the ordering service.
func (nw *Network) sendToOrderer(corg *Org, env *Envelope, done func(TxResult)) {
	leader := nw.orderer.Leader()
	if leader == nil {
		// No leader yet (election in progress): retry shortly.
		nw.sim.After(netmodel.DefaultRetryDelay, func() { nw.sendToOrderer(corg, env, done) })
		return
	}
	nw.pending[env.ID] = &pendingTx{env: env, done: done}
	// Model the client->orderer hop, then consensus inside the cluster.
	nw.net.Send(corg.Peer, nw.ordererAddr(), env.Size(), func() {
		if !nw.orderer.Submit(raft.Request{ID: env.ID, SubmittedAt: env.SubmittedAt}) {
			nw.sim.After(netmodel.DefaultRetryDelay, func() { nw.resubmit(env.ID) })
		}
	})
}

func (nw *Network) resubmit(envID int) {
	if !nw.orderer.Submit(raft.Request{ID: envID, SubmittedAt: nw.sim.Now()}) {
		nw.sim.After(netmodel.DefaultRetryDelay, func() { nw.resubmit(envID) })
	}
}

// ordererAddr returns a representative network address of the ordering
// service (the leader's, falling back to node 0).
func (nw *Network) ordererAddr() netmodel.NodeID {
	if l := nw.orderer.Leader(); l != nil {
		return nw.orderer.Nodes()[l.ID()].Addr()
	}
	return nw.orderer.Nodes()[0].Addr()
}

// onOrdered queues an ordered envelope for its channel's next block.
func (nw *Network) onOrdered(envID int) {
	p, ok := nw.pending[envID]
	if !ok {
		return
	}
	ch := nw.channels[p.env.Channel]
	ch.batch = append(ch.batch, p.env)
	if len(ch.batch) >= nw.cfg.BlockSize {
		nw.cutBlock(ch)
	}
}

// cutBlock validates the batch sequentially (Fabric's commit-time MVCC
// check), appends the block to the channel chain, and delivers it to every
// member peer.
func (nw *Network) cutBlock(ch *Channel) {
	if len(ch.batch) == 0 {
		return
	}
	batch := ch.batch
	ch.batch = nil

	txs := make([]*ledger.Tx, 0, len(batch))
	type outcome struct {
		env   *Envelope
		valid bool
	}
	outcomes := make([]outcome, 0, len(batch))
	blockBytes := 0
	for _, env := range batch {
		digest := env.RWSet.Digest()
		valid := nw.validate(ch, env, digest)
		if valid {
			ch.state.apply(env.RWSet.Writes)
			ch.committedTx++
		} else {
			ch.invalidTx++
		}
		outcomes = append(outcomes, outcome{env: env, valid: valid})
		txs = append(txs, &ledger.Tx{Payload: digest})
		blockBytes += env.Size()
	}
	block := ledger.NewBlock(ch.chain.BestHash(), txs, nw.sim.Now(), 1)
	if _, _, err := ch.chain.AddBlock(block); err != nil {
		return
	}
	height := ch.chain.BestHeight()

	// Deliver to member peers; the creator's peer delivery resolves the
	// submitter's callback.
	for _, orgName := range ch.orgs {
		org := nw.orgs[orgName]
		orgName := orgName
		nw.net.Send(nw.ordererAddr(), org.Peer, blockBytes+128, func() {
			ch.peerWork[orgName] += int64(len(batch))
			for _, oc := range outcomes {
				if oc.env.Creator != orgName {
					continue
				}
				p, ok := nw.pending[oc.env.ID]
				if !ok {
					continue
				}
				delete(nw.pending, oc.env.ID)
				if p.done != nil {
					p.done(TxResult{
						Valid:   oc.valid,
						Latency: nw.sim.Now() - oc.env.SubmittedAt,
						Block:   height,
					})
				}
			}
		})
	}
}

// validate applies Fabric's commit-time checks to an envelope whose
// read/write set has the given digest: the endorsement policy and the MVCC
// read-set check. An endorsement the creator's peer accepted with exactly
// these org, digest and signature bytes is not verified again; any other is.
// Every endorsement's record is consumed, whatever the verdict.
func (nw *Network) validate(ch *Channel, env *Envelope, digest []byte) bool {
	valid := len(env.Endorsements) >= ch.policy.Required
	seen := make(map[string]bool, len(env.Endorsements))
	for _, e := range env.Endorsements {
		accepted := nw.consume(e.Org, digest, e.Sig)
		if !valid {
			continue
		}
		id, ok := nw.msp.Lookup(e.Org)
		if !ok || !slices.Contains(ch.orgs, e.Org) || seen[e.Org] || !accepted && !id.Verify(digest, e.Sig) {
			valid = false
			continue
		}
		seen[e.Org] = true
	}
	return valid && !ch.state.conflict(env.RWSet)
}
