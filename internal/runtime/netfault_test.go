package runtime

import (
	"net"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/netfault"
	"chc/internal/wire"
)

// newGatherCluster builds n gather processes for TCP wire-fault tests.
func newGatherProcs(n int) ([]dist.Process, []*gatherProc) {
	procs := make([]dist.Process, n)
	impl := make([]*gatherProc, n)
	for i := range procs {
		impl[i] = newGatherProc(n, nil)
		procs[i] = impl[i]
	}
	return procs, impl
}

// TestTCPClusterFlakyWire: a mildly corrupting wire (bit flips, lost tails,
// stalls) must be absorbed entirely by CRC rejection and retransmission —
// every process still gathers everything.
func TestTCPClusterFlakyWire(t *testing.T) {
	const n = 4
	procs, impl := newGatherProcs(n)
	plan := netfault.Flaky()
	plan.Seed = 21
	plan.AfterBytes = 0 // no mercy for the handshakes either
	c, err := NewTCPCluster(procs, Config{Env: Env{NetFaults: &plan}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if got := p.heardCount(); got < n {
			t.Errorf("process %d heard %d, want %d", i, got, n)
		}
	}
	if st := c.Stats(); st.Sends != n*(n-1) {
		t.Errorf("protocol sends = %d, want %d (wire faults must not distort protocol accounting)", st.Sends, n*(n-1))
	}
}

// TestTCPClusterHostileWireTorture is the live-link torture test: a hostile
// byte-stream adversary (flips, garbage, length mutations, truncations,
// mid-frame resets) attacks a real TCP mesh mid-protocol, then is disarmed
// — after which every process must still converge: no panic, no corrupted
// delivery, eventual delivery once corruption stops.
func TestTCPClusterHostileWireTorture(t *testing.T) {
	const n = 4
	procs, impl := newGatherProcs(n)
	plan := netfault.Hostile()
	plan.Seed = 99
	// A short gather moves only a few hundred bytes per link; shrink the
	// fate window and drop the grace prefix so the adversary actually bites.
	plan.AfterBytes = 0
	plan.WindowBytes = 32
	plan.FlipProb = 0.25
	c, err := NewTCPCluster(procs, Config{Env: Env{NetFaults: &plan}})
	if err != nil {
		t.Fatal(err)
	}
	// "Corruption stops": disarm the injector after the protocol has run
	// under fire for a while; everything still in flight must then drain.
	stop := time.AfterFunc(time.Second, c.nfault.Disarm)
	defer stop.Stop()
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if got := p.heardCount(); got < n {
			t.Errorf("process %d heard %d, want %d", i, got, n)
		}
	}
	st := c.Stats()
	if st.Net.InjectedWire == 0 {
		t.Error("hostile plan injected nothing")
	}
	if st.Net.CorruptFrames == 0 {
		t.Error("no corrupt frames classified despite injected corruption")
	}
	if st.Sends != n*(n-1) {
		t.Errorf("protocol sends = %d, want %d", st.Sends, n*(n-1))
	}
}

// TestCorruptHandshakeDoesNotResume feeds a corrupted handshake — one whose
// seq/ack watermarks were damaged in flight — to an accepting transport.
// The connection must be rejected before any resume state is touched: a
// corrupted hello must never rewind or fast-forward a link cursor. The mesh
// then proves it is unharmed by completing a full gather (the clean redial
// carries the true watermarks).
func TestCorruptHandshakeDoesNotResume(t *testing.T) {
	const n = 2
	procs, impl := newGatherProcs(n)
	c, err := NewTCPCluster(procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	target := c.nodes[1].tcp
	resumesBefore := c.nodes[1].inc.ep.Stats().Resumes
	faultsBefore := target.linkFaults.Load()

	// A handshake claiming epoch 7 and wild watermarks, with one body byte
	// flipped in flight. If the transport trusted it, node 1 would count a
	// resume and trim its send queue to the bogus ack.
	hs := wire.Frame{Type: wire.FrameHandshake, From: 0, Seq: 99, Epoch: 7, Ack: 98}
	b, err := wire.AppendFrame(nil, hs)
	if err != nil {
		t.Fatal(err)
	}
	b[wire.FrameHeaderLen+6] ^= 0x41 // damage the body; CRC now fails
	conn, err := net.Dial("tcp", target.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for target.linkFaults.Load() == faultsBefore {
		if time.Now().After(deadline) {
			t.Fatal("corrupted handshake was never counted as a link fault")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.nodes[1].inc.ep.Stats().Resumes; got != resumesBefore {
		t.Fatalf("corrupted handshake processed as a resume (resumes %d -> %d)", resumesBefore, got)
	}

	// The real links are untouched: the gather completes over the original
	// clean handshakes / redials.
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if got := p.heardCount(); got < n {
			t.Errorf("process %d heard %d, want %d", i, got, n)
		}
	}
}

// TestPeerHealthQuarantineStateMachine drives the strike/quarantine/readmit
// machinery directly: strikes accumulate to quarantine, connections are
// rejected during the backoff, the first clean handshake after expiry
// readmits, and clean frames leak strikes away.
func TestPeerHealthQuarantineStateMachine(t *testing.T) {
	tr := &tcpTransport{}
	h := &peerHealth{}

	// Clean-frame decay: strikes leak away under a merely flaky stream.
	for i := 0; i < quarantineStrikes-1; i++ {
		h.strike(tr)
	}
	for i := 0; i < (quarantineStrikes-1)*strikeDecayEvery; i++ {
		h.goodFrame()
	}
	h.strike(tr) // would have quarantined without decay
	if h.quarantined() {
		t.Fatal("decayed strikes still quarantined the peer")
	}
	if tr.quarantines.Load() != 0 {
		t.Fatalf("quarantines = %d before the budget was ever exceeded", tr.quarantines.Load())
	}

	// Burst corruption crosses the budget.
	for i := 0; i < quarantineStrikes; i++ {
		h.strike(tr)
	}
	if !h.quarantined() {
		t.Fatal("strike budget exceeded but peer not quarantined")
	}
	if tr.quarantines.Load() != 1 {
		t.Fatalf("quarantines = %d, want 1", tr.quarantines.Load())
	}
	if h.admit(tr) {
		t.Fatal("connection admitted during quarantine backoff")
	}
	if tr.readmits.Load() != 0 {
		t.Fatal("readmit counted while still quarantined")
	}

	// Wait out the (first-cycle, jittered) backoff, then readmit.
	deadline := time.Now().Add(2 * quarantineBase)
	for !h.admit(tr) {
		if time.Now().After(deadline) {
			t.Fatal("peer never readmitted after backoff expiry")
		}
		time.Sleep(time.Millisecond)
	}
	if tr.readmits.Load() != 1 {
		t.Fatalf("readmits = %d, want 1", tr.readmits.Load())
	}
	if h.quarantined() {
		t.Fatal("still quarantined after readmission")
	}

	// Strikes were forgiven at readmission; the budget starts fresh.
	h.strike(tr)
	if h.quarantined() {
		t.Fatal("single post-readmit strike re-quarantined the peer")
	}

	// A garbage-budget blowout quarantines immediately, with a longer
	// (second-cycle) backoff.
	h.quarantineNow(tr)
	if !h.quarantined() || tr.quarantines.Load() != 2 {
		t.Fatalf("quarantineNow: quarantined=%v count=%d, want true/2", h.quarantined(), tr.quarantines.Load())
	}
}

// TestChannelClusterRejectsNetFaults: byte-stream faults need byte streams.
func TestChannelClusterRejectsNetFaults(t *testing.T) {
	procs, _ := newGatherProcs(2)
	flaky := netfault.Flaky()
	if _, err := NewChannelCluster(procs, Config{Env: Env{NetFaults: &flaky}}); err == nil {
		t.Fatal("channel cluster accepted NetFaults")
	}
}
