package permissioned

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// versioned is one world-state entry.
type versioned struct {
	value   []byte
	version uint64
}

// State is a channel's world state: a versioned key-value store supporting
// the MVCC validation Fabric performs at commit time.
type State struct {
	entries map[string]versioned
}

// NewState returns an empty world state.
func NewState() *State {
	return &State{entries: make(map[string]versioned)}
}

// Get returns the value and version for key (version 0 = never written).
func (s *State) Get(key string) ([]byte, uint64) {
	e, ok := s.entries[key]
	if !ok {
		return nil, 0
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	return out, e.version
}

// apply installs a write set, bumping versions.
func (s *State) apply(writes []Write) {
	for _, w := range writes {
		cur := s.entries[w.Key]
		val := make([]byte, len(w.Value))
		copy(val, w.Value)
		s.entries[w.Key] = versioned{value: val, version: cur.version + 1}
	}
}

// Read records one read with the version observed at simulation
// (endorsement) time.
type Read struct {
	Key     string
	Version uint64
}

// Write records one pending write.
type Write struct {
	Key   string
	Value []byte
}

// RWSet is the outcome of speculatively executing chaincode.
type RWSet struct {
	Reads  []Read
	Writes []Write
}

// Digest returns the canonical hash of the read/write set — the content
// that endorsers sign.
func (rw *RWSet) Digest() []byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(len(rw.Reads)))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(rw.Writes)))
	h.Write(buf[:])
	for _, r := range rw.Reads {
		h.Write([]byte(r.Key))
		h.Write([]byte{0})
		binary.BigEndian.PutUint64(buf[:], r.Version)
		h.Write(buf[:])
	}
	for _, w := range rw.Writes {
		h.Write([]byte(w.Key))
		h.Write([]byte{0})
		h.Write(w.Value)
		h.Write([]byte{0})
	}
	return h.Sum(nil)
}

// conflict reports whether the read set is stale against the current state.
func (s *State) conflict(rw *RWSet) bool {
	for _, r := range rw.Reads {
		if _, v := s.Get(r.Key); v != r.Version {
			return true
		}
	}
	return false
}

// Stub is the chaincode's interface to the world state during speculative
// execution; it accumulates the read/write set.
type Stub struct {
	state *State
	rw    RWSet
	// local view of uncommitted writes within the same execution
	pending map[string][]byte
}

func newStub(state *State) *Stub {
	return &Stub{state: state, pending: make(map[string][]byte)}
}

// GetState reads a key, recording the observed version.
func (st *Stub) GetState(key string) ([]byte, error) {
	if key == "" {
		return nil, errors.New("permissioned: empty key")
	}
	if v, ok := st.pending[key]; ok {
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	val, ver := st.state.Get(key)
	st.rw.Reads = append(st.rw.Reads, Read{Key: key, Version: ver})
	return val, nil
}

// PutState stages a write.
func (st *Stub) PutState(key string, value []byte) error {
	if key == "" {
		return errors.New("permissioned: empty key")
	}
	v := make([]byte, len(value))
	copy(v, value)
	st.pending[key] = v
	st.rw.Writes = append(st.rw.Writes, Write{Key: key, Value: v})
	return nil
}

// Chaincode is application logic executed speculatively at endorsement.
type Chaincode func(stub *Stub, args []string) error

// Execute runs chaincode against the state and returns its read/write set.
func Execute(state *State, cc Chaincode, args []string) (*RWSet, error) {
	if cc == nil {
		return nil, errors.New("permissioned: nil chaincode")
	}
	stub := newStub(state)
	if err := cc(stub, args); err != nil {
		return nil, fmt.Errorf("chaincode: %w", err)
	}
	return &stub.rw, nil
}
