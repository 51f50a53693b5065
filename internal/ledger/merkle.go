package ledger

import "crypto/sha256"

// MerkleRoot computes the Merkle root of the given transaction ids using the
// Bitcoin convention (odd levels duplicate the last node). An empty input
// yields the zero hash.
func MerkleRoot(ids []TxID) Hash {
	if len(ids) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(ids))
	copy(level, ids)
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := make([]Hash, 0, len(level)/2)
		for i := 0; i < len(level); i += 2 {
			next = append(next, hashPair(level[i], level[i+1]))
		}
		level = next
	}
	return level[0]
}

func hashPair(a, b Hash) Hash {
	h := sha256.New()
	h.Write(a[:])
	h.Write(b[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}
