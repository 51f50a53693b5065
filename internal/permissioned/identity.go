// Package permissioned implements a Hyperledger-Fabric-style permissioned
// blockchain: a membership service with real signature verification
// (ed25519), chaincode executed under an execute-order-validate pipeline,
// k-of-n endorsement policies, channels whose transactions are processed
// only by their member organizations, a Raft-backed ordering service, and
// MVCC read/write-set validation at commit.
//
// It is the paper's §IV/§V counter-proposal made concrete: authenticated
// members, no proof-of-work, consensus confined to the parties that care
// about a transaction (E13, E14, E16).
package permissioned

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Identity is an organization's signing identity, issued by the membership
// service provider (MSP).
type Identity struct {
	// Org is the owning organization's name.
	Org string
	// Public is the verification key distributed via the MSP.
	Public ed25519.PublicKey

	private ed25519.PrivateKey
}

// rngReader adapts a sim.RNG to io.Reader for deterministic key generation.
type rngReader struct {
	g *sim.RNG
}

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.g.Intn(256))
	}
	return len(p), nil
}

// NewIdentity mints a deterministic identity for the organization from the
// given random stream.
func NewIdentity(g *sim.RNG, org string) (*Identity, error) {
	if org == "" {
		return nil, errors.New("permissioned: empty org name")
	}
	pub, priv, err := ed25519.GenerateKey(rngReader{g: g})
	if err != nil {
		return nil, fmt.Errorf("generate key for %q: %w", org, err)
	}
	return &Identity{Org: org, Public: pub, private: priv}, nil
}

// Sign produces a signature over msg.
func (id *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.private, msg)
}

// Verify checks a signature against the identity's public key.
func (id *Identity) Verify(msg, sig []byte) bool {
	return ed25519.Verify(id.Public, msg, sig)
}

// MSP is the membership service: the registry of organization identities
// that replaces permissionless self-assigned identifiers — the structural
// fix for the sybil problem.
type MSP struct {
	idents map[string]*Identity
}

// NewMSP creates an empty registry.
func NewMSP() *MSP {
	return &MSP{idents: make(map[string]*Identity)}
}

// Enroll registers an organization and returns its identity.
func (m *MSP) Enroll(g *sim.RNG, org string) (*Identity, error) {
	if _, dup := m.idents[org]; dup {
		return nil, fmt.Errorf("permissioned: org %q already enrolled", org)
	}
	id, err := NewIdentity(g, org)
	if err != nil {
		return nil, err
	}
	m.idents[org] = id
	return id, nil
}

// Lookup returns an enrolled identity.
func (m *MSP) Lookup(org string) (*Identity, bool) {
	id, ok := m.idents[org]
	return id, ok
}
