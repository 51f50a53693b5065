// Package ledger provides the data structures shared by every blockchain in
// this repository: transactions with UTXO semantics, Merkle trees with
// inclusion proofs, hash-chained blocks, a UTXO set with conservation
// checking, and a block tree with most-work chain selection and reorgs.
//
// Both the permissionless PoW simulator and the permissioned
// (Fabric-like) stack build on these types.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// Hash is a 256-bit content hash.
type Hash [32]byte

// String returns a short hex prefix for logs.
func (h Hash) String() string { return hex.EncodeToString(h[:6]) }

// TxID identifies a transaction by its content hash.
type TxID = Hash

// Outpoint references one output of a prior transaction.
type Outpoint struct {
	Tx    TxID
	Index uint32
}

// TxIn spends a previous output. Ownership verification is modelled by an
// owner string carried on outputs rather than signatures: the simulation
// concerns consensus and propagation behaviour, not cryptography.
type TxIn struct {
	Prev Outpoint
}

// TxOut creates value assigned to an owner.
type TxOut struct {
	Value uint64
	Owner string
}

// Tx is a transaction: it consumes inputs and creates outputs. A coinbase
// transaction has no inputs and mints the block subsidy.
type Tx struct {
	Ins  []TxIn
	Outs []TxOut
	// Payload carries application bytes (used by the permissioned stack
	// for chaincode write sets); it contributes to the ID.
	Payload []byte
}

// Coinbase reports whether the transaction mints new value.
func (tx *Tx) Coinbase() bool { return len(tx.Ins) == 0 }

// OutValue returns the total value created.
func (tx *Tx) OutValue() uint64 {
	var sum uint64
	for _, o := range tx.Outs {
		sum += o.Value
	}
	return sum
}

// ID returns the transaction's content hash.
func (tx *Tx) ID() TxID {
	h := sha256.New()
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(len(tx.Ins)))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(tx.Outs)))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(tx.Payload)))
	h.Write(buf[:])
	for _, in := range tx.Ins {
		h.Write(in.Prev.Tx[:])
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], in.Prev.Index)
		h.Write(idx[:])
	}
	for _, out := range tx.Outs {
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], out.Value)
		h.Write(v[:])
		h.Write([]byte(out.Owner))
		h.Write([]byte{0})
	}
	h.Write(tx.Payload)
	var id TxID
	copy(id[:], h.Sum(nil))
	return id
}

// Size returns the modelled wire size of the transaction in bytes.
func (tx *Tx) Size() int {
	size := 10 // version, counts
	size += len(tx.Ins) * 36
	for _, o := range tx.Outs {
		size += 9 + len(o.Owner)
	}
	size += len(tx.Payload)
	return size
}

// UTXOSet tracks unspent outputs and enforces conservation of value.
type UTXOSet struct {
	entries map[Outpoint]TxOut
}

// NewUTXOSet returns an empty set.
func NewUTXOSet() *UTXOSet {
	return &UTXOSet{entries: make(map[Outpoint]TxOut)}
}

// Errors returned by UTXO validation.
var (
	ErrMissingInput = errors.New("ledger: input not in UTXO set")
	ErrOverspend    = errors.New("ledger: outputs exceed inputs")
)

// Len returns the number of unspent outputs.
func (u *UTXOSet) Len() int { return len(u.entries) }

// Lookup returns the output referenced by op.
func (u *UTXOSet) Lookup(op Outpoint) (TxOut, bool) {
	out, ok := u.entries[op]
	return out, ok
}

// Balance sums the unspent value assigned to owner.
func (u *UTXOSet) Balance(owner string) uint64 {
	var sum uint64
	for _, out := range u.entries {
		if out.Owner == owner {
			sum += out.Value
		}
	}
	return sum
}

// TotalValue sums all unspent value.
func (u *UTXOSet) TotalValue() uint64 {
	var sum uint64
	for _, out := range u.entries {
		sum += out.Value
	}
	return sum
}

// Fee returns the fee a transaction would pay (inputs minus outputs), or an
// error if it is invalid against the current set. Coinbase transactions have
// no fee.
func (u *UTXOSet) Fee(tx *Tx) (uint64, error) {
	if tx.Coinbase() {
		return 0, nil
	}
	var in uint64
	seen := make(map[Outpoint]bool, len(tx.Ins))
	for _, txin := range tx.Ins {
		if seen[txin.Prev] {
			return 0, fmt.Errorf("%w: duplicate input %v", ErrMissingInput, txin.Prev.Tx)
		}
		seen[txin.Prev] = true
		out, ok := u.entries[txin.Prev]
		if !ok {
			return 0, fmt.Errorf("%w: %v[%d]", ErrMissingInput, txin.Prev.Tx, txin.Prev.Index)
		}
		in += out.Value
	}
	outVal := tx.OutValue()
	if outVal > in {
		return 0, fmt.Errorf("%w: in=%d out=%d", ErrOverspend, in, outVal)
	}
	return in - outVal, nil
}

// ApplyTx validates and applies a non-coinbase transaction, returning its
// fee. For coinbase transactions use ApplyCoinbase so the subsidy cap is
// enforced.
func (u *UTXOSet) ApplyTx(tx *Tx) (uint64, error) {
	if tx.Coinbase() {
		return 0, errors.New("ledger: ApplyTx on coinbase; use ApplyCoinbase")
	}
	fee, err := u.Fee(tx)
	if err != nil {
		return 0, err
	}
	for _, txin := range tx.Ins {
		delete(u.entries, txin.Prev)
	}
	u.addOutputs(tx)
	return fee, nil
}

// ApplyCoinbase applies a coinbase transaction, enforcing that it mints at
// most subsidy+fees.
func (u *UTXOSet) ApplyCoinbase(tx *Tx, subsidy, fees uint64) error {
	if !tx.Coinbase() {
		return errors.New("ledger: ApplyCoinbase on regular transaction")
	}
	if tx.OutValue() > subsidy+fees {
		return fmt.Errorf("%w: coinbase mints %d > %d", ErrOverspend, tx.OutValue(), subsidy+fees)
	}
	u.addOutputs(tx)
	return nil
}

func (u *UTXOSet) addOutputs(tx *Tx) {
	id := tx.ID()
	for i, out := range tx.Outs {
		u.entries[Outpoint{Tx: id, Index: uint32(i)}] = out
	}
}

// Clone returns an independent copy (used to validate candidate chains).
func (u *UTXOSet) Clone() *UTXOSet {
	cp := &UTXOSet{entries: make(map[Outpoint]TxOut, len(u.entries))}
	for k, v := range u.entries {
		cp.entries[k] = v
	}
	return cp
}
