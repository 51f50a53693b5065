package permissioned

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// counterCC increments a named counter — the canonical MVCC-sensitive
// chaincode.
func counterCC(stub *Stub, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("want 1 arg, got %d", len(args))
	}
	raw, err := stub.GetState(args[0])
	if err != nil {
		return err
	}
	n := 0
	if len(raw) > 0 {
		n, err = strconv.Atoi(string(raw))
		if err != nil {
			return err
		}
	}
	return stub.PutState(args[0], []byte(strconv.Itoa(n+1)))
}

// putCC writes key=value unconditionally (no reads, so never conflicts).
func putCC(stub *Stub, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("want 2 args, got %d", len(args))
	}
	return stub.PutState(args[0], []byte(args[1]))
}

func newNet(t *testing.T, seed int64, orgs int, cfg Config) (*sim.Sim, *Network) {
	t.Helper()
	s := sim.New(sim.WithSeed(seed))
	nm := netmodel.New(s, netmodel.WithJitter(0.1))
	nw, err := NewNetwork(s, nm, cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for i := 0; i < orgs; i++ {
		if _, err := nw.AddOrg(fmt.Sprintf("org%d", i), netmodel.Europe); err != nil {
			t.Fatalf("AddOrg: %v", err)
		}
	}
	return s, nw
}

func orgNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("org%d", i)
	}
	return out
}

func TestIdentitySignVerify(t *testing.T) {
	g := sim.NewRNG(1)
	id, err := NewIdentity(g, "acme")
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	msg := []byte("hello")
	sig := id.Sign(msg)
	if !id.Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if id.Verify([]byte("tampered"), sig) {
		t.Fatal("signature verified over wrong message")
	}
	other, err := NewIdentity(g, "evil")
	if err != nil {
		t.Fatal(err)
	}
	if other.Verify(msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestMSPEnrollment(t *testing.T) {
	g := sim.NewRNG(2)
	msp := NewMSP()
	if _, err := msp.Enroll(g, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := msp.Enroll(g, "a"); err == nil {
		t.Fatal("duplicate enrollment should error")
	}
	if _, ok := msp.Lookup("a"); !ok {
		t.Fatal("enrolled org missing")
	}
	if _, ok := msp.Lookup("b"); ok {
		t.Fatal("phantom org found")
	}
}

func TestChaincodeExecutionRWSet(t *testing.T) {
	state := NewState()
	rw, err := Execute(state, counterCC, []string{"k"})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(rw.Reads) != 1 || rw.Reads[0].Version != 0 {
		t.Fatalf("reads = %+v, want one read at version 0", rw.Reads)
	}
	if len(rw.Writes) != 1 || string(rw.Writes[0].Value) != "1" {
		t.Fatalf("writes = %+v, want k=1", rw.Writes)
	}
	// Digest changes with content.
	rw2, err := Execute(state, putCC, []string{"k", "other"})
	if err != nil {
		t.Fatal(err)
	}
	if string(rw.Digest()) == string(rw2.Digest()) {
		t.Fatal("distinct rw-sets share a digest")
	}
}

func TestMVCCConflictDetection(t *testing.T) {
	state := NewState()
	rw1, err := Execute(state, counterCC, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	rw2, err := Execute(state, counterCC, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if state.conflict(rw1) {
		t.Fatal("first tx should not conflict")
	}
	state.apply(rw1.Writes)
	if !state.conflict(rw2) {
		t.Fatal("second tx read a stale version and must conflict")
	}
}

func TestEndToEndCommit(t *testing.T) {
	s, nw := newNet(t, 3, 4, Config{BlockSize: 1})
	if _, err := nw.CreateChannel("trade", orgNames(4), Policy{Required: 2}); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := nw.InstallChaincode("trade", "put", putCC); err != nil {
		t.Fatalf("InstallChaincode: %v", err)
	}
	if err := nw.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var res *TxResult
	// Let the orderer elect a leader first.
	s.After(3*time.Second, func() {
		err := nw.Submit("trade", "org0", "put", []string{"asset1", "alice"}, func(r TxResult) { res = &r })
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	if err := s.RunUntil(20 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil {
		t.Fatal("transaction never resolved")
	}
	if !res.Valid {
		t.Fatal("transaction invalidated")
	}
	if res.Latency <= 0 || res.Latency > 5*time.Second {
		t.Fatalf("latency = %v, want sub-5s", res.Latency)
	}
	ch, _ := nw.Channel("trade")
	if ch.Committed() != 1 || ch.Height() != 1 {
		t.Fatalf("committed=%d height=%d, want 1/1", ch.Committed(), ch.Height())
	}
	val, ver := ch.State().Get("asset1")
	if string(val) != "alice" || ver != 1 {
		t.Fatalf("state = %q v%d, want alice v1", val, ver)
	}
}

func TestMVCCInvalidationEndToEnd(t *testing.T) {
	s, nw := newNet(t, 4, 3, Config{BlockSize: 10, BlockTimeout: time.Second})
	if _, err := nw.CreateChannel("c", orgNames(3), Policy{Required: 2}); err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallChaincode("c", "counter", counterCC); err != nil {
		t.Fatal(err)
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	valid, invalid := 0, 0
	s.After(3*time.Second, func() {
		// Two racing increments endorsed against the same version: the
		// second to commit must be invalidated.
		for i := 0; i < 2; i++ {
			err := nw.Submit("c", "org0", "counter", []string{"x"}, func(r TxResult) {
				if r.Valid {
					valid++
				} else {
					invalid++
				}
			})
			if err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
	})
	if err := s.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if valid != 1 || invalid != 1 {
		t.Fatalf("valid=%d invalid=%d, want exactly one of each", valid, invalid)
	}
	ch, _ := nw.Channel("c")
	if v, _ := ch.State().Get("x"); string(v) != "1" {
		t.Fatalf("counter = %q, want 1 (lost update prevented)", v)
	}
}

func TestChannelIsolationOfWork(t *testing.T) {
	s, nw := newNet(t, 5, 6, Config{BlockSize: 1})
	// Channel A: orgs 0-2; channel B: orgs 3-5.
	if _, err := nw.CreateChannel("a", []string{"org0", "org1", "org2"}, Policy{Required: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.CreateChannel("b", []string{"org3", "org4", "org5"}, Policy{Required: 2}); err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallChaincode("a", "put", putCC); err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallChaincode("b", "put", putCC); err != nil {
		t.Fatal(err)
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	resolved := 0
	s.After(3*time.Second, func() {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("k%d", i)
			if err := nw.Submit("a", "org0", "put", []string{key, "v"}, func(TxResult) { resolved++ }); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}
	})
	if err := s.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resolved != 10 {
		t.Fatalf("resolved = %d, want 10", resolved)
	}
	chA, _ := nw.Channel("a")
	chB, _ := nw.Channel("b")
	workA := chA.PeerWork()
	if workA["org0"] == 0 || workA["org2"] == 0 {
		t.Fatal("channel members did no validation work")
	}
	for org, w := range chB.PeerWork() {
		if w != 0 {
			t.Fatalf("org %s in channel b did %d work for channel a's traffic", org, w)
		}
	}
	if chB.Height() != 0 {
		t.Fatal("channel b chain advanced without transactions")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, nw := newNet(t, 6, 3, Config{})
	if _, err := nw.CreateChannel("c", orgNames(2), Policy{Required: 1}); err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallChaincode("c", "put", putCC); err != nil {
		t.Fatal(err)
	}
	if err := nw.Submit("nope", "org0", "put", nil, nil); err == nil {
		t.Fatal("unknown channel should error")
	}
	if err := nw.Submit("c", "nobody", "put", nil, nil); err == nil {
		t.Fatal("unknown org should error")
	}
	if err := nw.Submit("c", "org2", "put", nil, nil); err == nil {
		t.Fatal("non-member org should error")
	}
	if err := nw.Submit("c", "org0", "missing", nil, nil); err == nil {
		t.Fatal("missing chaincode should error")
	}
	if err := nw.Submit("c", "org0", "put", []string{"only-one"}, nil); err == nil {
		t.Fatal("chaincode arg error should propagate")
	}
}

func TestChannelValidation(t *testing.T) {
	_, nw := newNet(t, 7, 3, Config{})
	if _, err := nw.CreateChannel("c", []string{"ghost"}, Policy{Required: 1}); err == nil {
		t.Fatal("unknown member should error")
	}
	if _, err := nw.CreateChannel("c", orgNames(2), Policy{Required: 5}); err == nil {
		t.Fatal("unsatisfiable policy should error")
	}
	if _, err := nw.CreateChannel("c", orgNames(2), Policy{Required: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.CreateChannel("c", orgNames(2), Policy{Required: 1}); err == nil {
		t.Fatal("duplicate channel should error")
	}
	if err := nw.InstallChaincode("nope", "x", putCC); err == nil {
		t.Fatal("unknown channel should error")
	}
	if err := nw.InstallChaincode("c", "x", nil); err == nil {
		t.Fatal("nil chaincode should error")
	}
}

func TestStateZeroValueSemantics(t *testing.T) {
	st := NewState()
	v, ver := st.Get("missing")
	if v != nil || ver != 0 {
		t.Fatal("missing keys must read as nil/v0")
	}
	st.apply([]Write{{Key: "a", Value: []byte("1")}})
	st.apply([]Write{{Key: "a", Value: []byte("2")}})
	v, ver = st.Get("a")
	if string(v) != "2" || ver != 2 {
		t.Fatalf("got %q v%d, want 2 v2", v, ver)
	}
	if len(st.entries) != 1 {
		t.Fatalf("Len = %d, want 1", len(st.entries))
	}
}

// The commit-time check skips ed25519 only for an endorsement the
// creator's peer accepted with exactly the same org, digest and signature
// bytes. An endorsement tampered with after that check, by one flipped
// signature byte or by two endorsers' orgs swapped, is verified again and
// invalidates its transaction. The block consumes the record of every
// endorsement that reaches it as the creator's peer accepted it; a tampered
// one's record stays (nothing outside this test tampers).
func TestValidateReverifiesTamperedEndorsements(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(env *Envelope)
		valid  bool
		left   int // records of tampered endorsements
	}{
		{"intact", func(*Envelope) {}, true, 0},
		{"signature byte flipped", func(env *Envelope) { env.Endorsements[1].Sig[7] ^= 0x01 }, false, 1},
		{"orgs swapped", func(env *Envelope) {
			e := env.Endorsements
			e[0].Org, e[1].Org = e[1].Org, e[0].Org
		}, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, nw := newNet(t, 5, 3, Config{BlockSize: 1})
			if _, err := nw.CreateChannel("c", orgNames(3), Policy{Required: 2}); err != nil {
				t.Fatal(err)
			}
			if err := nw.InstallChaincode("c", "put", putCC); err != nil {
				t.Fatal(err)
			}
			if err := nw.Start(); err != nil {
				t.Fatal(err)
			}
			var res *TxResult
			s.After(3*time.Second, func() {
				if err := nw.Submit("c", "org0", "put", []string{"k", "v"}, func(r TxResult) { res = &r }); err != nil {
					t.Errorf("Submit: %v", err)
				}
			})
			// The envelope is pending from the creator's check on; the block
			// that validates it is cut only after a network hop and a Raft
			// round, so a 1 ms poll tampers with it in between.
			tampered, checked := false, 0
			if _, err := s.Every(time.Millisecond, func() {
				if p, ok := nw.pending[0]; ok && !tampered {
					tampered, checked = true, len(nw.accepted)
					tc.tamper(p.env)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if !tampered || checked != 2 {
				t.Fatalf("tampered=%t with %d accepted endorsements on record, want 2", tampered, checked)
			}
			if res == nil || res.Valid != tc.valid {
				t.Fatalf("result %+v, want valid=%t", res, tc.valid)
			}
			if len(nw.accepted) != tc.left {
				t.Fatalf("%d accepted endorsements left on record after their block, want %d", len(nw.accepted), tc.left)
			}
		})
	}
}
