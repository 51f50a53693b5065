// Package ledger provides the data structures the repository's two
// blockchains share: payload-only transactions, their Merkle root,
// hash-chained blocks, and a block tree with most-work chain selection and
// reorgs.
//
// Both the permissionless PoW simulator and the permissioned
// (Fabric-like) stack build on these types.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Hash is a 256-bit content hash.
type Hash [32]byte

// String returns a short hex prefix for logs.
func (h Hash) String() string { return hex.EncodeToString(h[:6]) }

// TxID identifies a transaction by its content hash.
type TxID = Hash

// Tx is a transaction: application bytes (the permissioned stack's
// chaincode write-set digest) committed to by its ID.
type Tx struct {
	Payload []byte
}

// ID returns the transaction's content hash.
func (tx *Tx) ID() TxID {
	h := sha256.New()
	// The two zero words are the input and output counts of the UTXO
	// layout this hash once had; keeping them keeps every tx id, Merkle
	// root and block hash unchanged.
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[8:], uint32(len(tx.Payload)))
	h.Write(buf[:])
	h.Write(tx.Payload)
	var id TxID
	copy(id[:], h.Sum(nil))
	return id
}
