package runtime

import (
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/wan"
)

func wanPlan(t *testing.T, spec string) *wan.Plan {
	t.Helper()
	p, err := wan.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestChannelClusterWANShaping runs a gather under a scaled 3-region model:
// shaping must delay frames without losing any, and must not distort the
// protocol-level send accounting the crash-budget machinery keys off.
func TestChannelClusterWANShaping(t *testing.T) {
	const n = 6
	procs, impl := newGatherProcs(n)
	c, err := NewChannelCluster(procs, Config{Env: Env{WAN: wanPlan(t, "3-regions,delay=0.02,tail=0.1"), WANSeed: 7}})
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
	st := c.Stats()
	if st.Sends != n*(n-1) {
		t.Errorf("protocol sends = %d, want %d (WAN shaping must not consume crash budget)", st.Sends, n*(n-1))
	}
	if st.Net.WANDelayedFrames == 0 {
		t.Error("no frames recorded as WAN-delayed under an enabled plan")
	}
	if st.Net.InjectedDrops != 0 || st.Net.PartitionDrops != 0 {
		t.Errorf("WAN model dropped frames: %+v", st.Net)
	}
}

// TestChannelClusterWANWithChaos composes the two injectors: chaos decides
// a frame's fate first, the WAN link delays the survivors. Both must report
// through one Stats call.
func TestChannelClusterWANWithChaos(t *testing.T) {
	const n = 5
	procs, impl := newGatherProcs(n)
	c, err := NewChannelCluster(procs, Config{Env: Env{
		WAN: wanPlan(t, "clos,delay=0.5"), WANSeed: 3,
		Chaos: &chaos.Profile{Drop: 0.2, Dup: 0.1}, ChaosSeed: 11,
	}})
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
	st := c.Stats()
	if st.Net.InjectedDrops == 0 {
		t.Error("chaos inactive under composition")
	}
	if st.Net.WANDelayedFrames == 0 {
		t.Error("WAN shaper inactive under composition")
	}
}

// TestTCPClusterWANShaping shapes a real TCP mesh: writes are released late
// but whole, so the framing layer must never see corruption and the peer
// quarantine machinery must stay silent.
func TestTCPClusterWANShaping(t *testing.T) {
	const n = 4
	procs, impl := newGatherProcs(n)
	c, err := NewTCPCluster(procs, Config{Env: Env{WAN: wanPlan(t, "us-eu-ap,delay=0.01"), WANSeed: 5}})
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
	st := c.Stats()
	if st.Net.WANShapedWrites == 0 {
		t.Error("no TCP writes recorded as WAN-delayed under an enabled plan")
	}
	if st.Net.CorruptFrames != 0 || st.Net.PeerQuarantines != 0 {
		t.Errorf("WAN conn shaping corrupted the stream: %+v", st.Net)
	}
}

// TestTCPClusterWANAsymmetricCut holds one direction of an inter-region
// pair closed for a window while the reverse direction keeps flowing. The
// model only delays, so the gather still completes and nothing is dropped
// or quarantined.
func TestTCPClusterWANAsymmetricCut(t *testing.T) {
	const n = 4
	procs, impl := newGatherProcs(n)
	c, err := NewTCPCluster(procs, Config{Env: Env{WAN: wanPlan(t, "3-regions,regions=2,delay=0.01,cut=r0->r1@0ms-300ms"), WANSeed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if got := p.heardCount(); got < n {
			t.Errorf("process %d heard %d, want %d", i, got, n)
		}
	}
	st := c.Stats()
	if st.Net.WANCutHeld == 0 {
		t.Error("no writes held by the cut window")
	}
	if st.Net.PeerQuarantines != 0 {
		t.Errorf("cut window tripped quarantine: %+v", st.Net)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Errorf("gather finished in %v, before the r0->r1 hold could matter", elapsed)
	}
}
