package runtime

import (
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/dist"
	"chc/internal/rlink"
)

// TestChannelClusterChaosGather checks the simplest protocol (one broadcast
// each, gather all) survives heavy loss, and that the per-link counters are
// surfaced through Cluster.Stats.
func TestChannelClusterChaosGather(t *testing.T) {
	const n = 5
	procs := make([]dist.Process, n)
	impl := make([]*gatherProc, n)
	for i := range procs {
		impl[i] = newGatherProc(n, nil)
		procs[i] = impl[i]
	}
	profile := chaos.Profile{Drop: 0.3, Dup: 0.15}
	c, err := NewChannelCluster(procs, Config{Env: Env{Chaos: &profile, ChaosSeed: 11}})
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
		t.Errorf("protocol sends = %d, want %d (chaos must not distort protocol accounting)", st.Sends, n*(n-1))
	}
	if st.Net.FramesSent < st.Sends {
		t.Errorf("frames sent %d < protocol sends %d", st.Net.FramesSent, st.Sends)
	}
	if st.Net.InjectedDrops == 0 {
		t.Error("no injected drops at drop=0.3")
	}
	if st.Net.Retransmits == 0 {
		t.Error("no retransmits despite drops")
	}
}

// TestReliableLinksWithoutChaos forces the rlink layer over perfect
// channels: it must be an invisible overlay (everything delivered, no
// retransmission storms required for correctness).
func TestReliableLinksWithoutChaos(t *testing.T) {
	const n = 4
	procs := make([]dist.Process, n)
	impl := make([]*gatherProc, n)
	for i := range procs {
		impl[i] = newGatherProc(n, nil)
		procs[i] = impl[i]
	}
	c, err := NewChannelCluster(procs, Config{links: &rlink.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if got := p.heardCount(); got < n {
			t.Errorf("process %d heard %d, want %d", i, got, n)
		}
	}
	st := c.Stats()
	if st.Net.FramesSent == 0 || st.Net.AcksSent == 0 {
		t.Errorf("reliable layer inactive: %+v", st.Net)
	}
	if st.Net.DupSuppressed != 0 {
		t.Errorf("perfect channels produced %d duplicates", st.Net.DupSuppressed)
	}
}
