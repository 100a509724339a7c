package runtime

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/dist"
	"chc/internal/wal"
)

// roundProc advances through R lockstep rounds: it broadcasts round r+1
// once it has heard round r from every peer. The sustained multi-round
// traffic gives a mid-run link failure something to disrupt.
type roundProc struct {
	mu     sync.Mutex
	n      int
	rounds int
	heard  map[int]map[dist.ProcID]bool
	round  int // highest round this process has completed
	done   bool
}

func newRoundProc(n, rounds int) *roundProc {
	return &roundProc{n: n, rounds: rounds, heard: make(map[int]map[dist.ProcID]bool)}
}

func (p *roundProc) Init(ctx dist.Context) {
	ctx.Broadcast("round", 0, nil)
}

func (p *roundProc) Deliver(ctx dist.Context, msg dist.Message) {
	p.mu.Lock()
	if p.heard[msg.Round] == nil {
		p.heard[msg.Round] = make(map[dist.ProcID]bool)
	}
	p.heard[msg.Round][msg.From] = true
	var advance []int
	for !p.done && len(p.heard[p.round]) == p.n-1 {
		p.round++
		if p.round >= p.rounds {
			p.done = true
			break
		}
		advance = append(advance, p.round)
	}
	p.mu.Unlock()
	for _, r := range advance {
		ctx.Broadcast("round", r, nil)
	}
}

func (p *roundProc) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}

func (p *roundProc) currentRound() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.round
}

// TestTCPClusterRecoversFromKilledConnections kills every connection of one
// node mid-run and requires the cluster to finish anyway: the hardened
// transport must redial (observable as Reconnects > 0) and the reliable
// links must retransmit whatever the cut lost.
func TestTCPClusterRecoversFromKilledConnections(t *testing.T) {
	const n, rounds = 3, 60
	procs := make([]dist.Process, n)
	impl := make([]*roundProc, n)
	for i := range procs {
		impl[i] = newRoundProc(n, rounds)
		procs[i] = impl[i]
	}
	c, err := NewTCPCluster(procs, Config{})
	if err != nil {
		t.Fatal(err)
	}

	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(60 * time.Second) }()

	// Wait for the protocol to get going, then cut node 1 off completely.
	deadline := time.Now().Add(30 * time.Second)
	for impl[0].currentRound() < 5 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	if impl[0].currentRound() < 5 {
		t.Fatal("protocol made no progress before the link kill")
	}
	c.nodes[1].tcp.breakLinks()

	if err := <-runDone; err != nil {
		t.Fatalf("cluster did not recover from killed connections: %v", err)
	}
	for i, p := range impl {
		if got := p.currentRound(); got < rounds {
			t.Errorf("process %d stopped at round %d, want %d", i, got, rounds)
		}
	}
	st := c.Stats()
	if st.Net.Reconnects == 0 {
		t.Errorf("no reconnects recorded after killing node 1's links; net stats: %+v", st.Net)
	}
	if st.Net.Retransmits == 0 {
		t.Errorf("no retransmits recorded after the cut; net stats: %+v", st.Net)
	}
}

// TestTCPClusterChaos runs the gather protocol over real sockets with
// chaos injected above them — drops and duplicates on top of TCP must be
// absorbed by the reliable-link layer.
func TestTCPClusterChaos(t *testing.T) {
	const n = 4
	procs := make([]dist.Process, n)
	impl := make([]*gatherProc, n)
	for i := range procs {
		impl[i] = newGatherProc(n, nil)
		procs[i] = impl[i]
	}
	c, err := NewTCPCluster(procs, Config{Env: Env{Chaos: &chaos.Profile{Drop: 0.25, Dup: 0.1}, ChaosSeed: 3}})
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
	if st := c.Stats(); st.Net.InjectedDrops == 0 {
		t.Error("chaos injected nothing over TCP")
	}
}

// TestTCPClusterDialFailureReleasesEverything fails the constructor's mesh
// dial (one listener is closed between listen and connect) on a WAL-backed
// cluster: the dial error must come back, and nothing the constructor built
// may outlive it — every journal is closed (and with it the committer
// goroutine that abort waits for).
func TestTCPClusterDialFailureReleasesEverything(t *testing.T) {
	const n = 3
	procs, _ := newGatherProcs(n)
	c, err := listenTCP(procs, Config{
		Env:      Env{WALDir: t.TempDir()},
		Recovery: RecoveryConfig{Factory: func(int) dist.Process { return newGatherProc(n, nil) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.nodes[1].tcp.ln.Close()
	err = c.connectMesh()
	if err == nil || !strings.Contains(err.Error(), "runtime: dial 0 -> 1") {
		t.Fatalf("connectMesh = %v, want the 0 -> 1 dial error", err)
	}
	for i, node := range c.nodes {
		if err := node.inc.wal.AppendDecided(0); !errors.Is(err, wal.ErrClosed) {
			t.Errorf("node %d: journal still open after the failed constructor (append = %v)", i, err)
		}
	}
}
