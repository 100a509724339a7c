package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/stablevector"
	"chc/internal/wire"
)

// gatherProc broadcasts its input and finishes after hearing `quorum`
// distinct senders (itself included). Concurrency-safe via the single pump
// goroutine per process, but fields read by tests after Run need a lock.
type gatherProc struct {
	mu     sync.Mutex
	quorum int
	heard  map[dist.ProcID]bool
	input  geom.Point
}

func newGatherProc(quorum int, input geom.Point) *gatherProc {
	return &gatherProc{quorum: quorum, heard: make(map[dist.ProcID]bool)}
}

func (p *gatherProc) Init(ctx dist.Context) {
	p.mu.Lock()
	p.heard[ctx.ID()] = true
	p.mu.Unlock()
	ctx.Broadcast("val", 0, wire.PointPayload{Value: geom.NewPoint(float64(ctx.ID()))})
}

func (p *gatherProc) Deliver(_ dist.Context, msg dist.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.heard[msg.From] = true
}

func (p *gatherProc) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.heard) >= p.quorum
}

func (p *gatherProc) heardCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.heard)
}

func TestChannelClusterGather(t *testing.T) {
	const n = 5
	procs := make([]dist.Process, n)
	impl := make([]*gatherProc, n)
	for i := range procs {
		impl[i] = newGatherProc(n, nil)
		procs[i] = impl[i]
	}
	c, err := NewChannelCluster(procs, Config{})
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
	if sends := c.Stats().Sends; sends != n*(n-1) {
		t.Errorf("sends = %d, want %d", sends, n*(n-1))
	}
}

func TestChannelClusterCrash(t *testing.T) {
	const n = 5
	procs := make([]dist.Process, n)
	impl := make([]*gatherProc, n)
	for i := range procs {
		impl[i] = newGatherProc(n-1, nil)
		procs[i] = impl[i]
	}
	c, err := NewChannelCluster(procs, Config{Crashes: []dist.CrashPlan{{Proc: 0, AfterSends: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if impl[i].heardCount() < n-1 {
			t.Errorf("process %d heard %d, want >= %d", i, impl[i].heardCount(), n-1)
		}
	}
}

func TestClusterTimeout(t *testing.T) {
	// A single process that never finishes must time out quickly.
	procs := []dist.Process{newGatherProc(2, nil)} // quorum 2 with n=1: impossible
	c, err := NewChannelCluster(procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewChannelCluster(nil, Config{}); err == nil {
		t.Error("empty cluster should error")
	}
}

// TestBytesCountedWithWireSize: every cluster counts the bytes of its sends
// as the wire codec sizes them, the same way the engine sizes a simulator run.
func TestBytesCountedWithWireSize(t *testing.T) {
	const n = 3
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = newGatherProc(n, nil)
	}
	c, err := NewChannelCluster(procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var want int64
	for from := dist.ProcID(0); from < n; from++ {
		for to := dist.ProcID(0); to < n; to++ {
			if from != to {
				want += int64(wire.MessageSize(dist.Message{From: from, To: to, Kind: "val",
					Payload: wire.PointPayload{Value: geom.NewPoint(float64(from))}}))
			}
		}
	}
	if st := c.Stats(); st.Bytes != want || want <= 0 {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
	if c.String() == "" {
		t.Error("String should be non-empty")
	}
}

// svHost adapts a stable vector instance to dist.Process with locking for
// the concurrent runtime.
type svHost struct {
	mu sync.Mutex
	sv *stablevector.SV
}

func (h *svHost) Init(ctx dist.Context) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sv.Start(ctx)
}

func (h *svHost) Deliver(ctx dist.Context, msg dist.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if msg.Kind == stablevector.KindReport {
		h.sv.Handle(ctx, msg)
	}
}

func (h *svHost) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sv.Done()
}

func (h *svHost) result() ([]wire.Entry, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sv.Result()
}

func runStableVectorCluster(t *testing.T, mk func([]dist.Process) (*Cluster, error), n, f int) {
	t.Helper()
	hosts := make([]*svHost, n)
	procs := make([]dist.Process, n)
	for i := 0; i < n; i++ {
		sv, err := stablevector.New(dist.ProcID(i), n, f, geom.NewPoint(float64(i), float64(-i)))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = &svHost{sv: sv}
		procs[i] = hosts[i]
	}
	c, err := mk(procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Liveness + containment over the real-concurrency run.
	sets := make([]map[dist.ProcID]bool, 0, n)
	for i, h := range hosts {
		res, ok := h.result()
		if !ok {
			t.Fatalf("process %d did not return", i)
		}
		if len(res) < n-f {
			t.Errorf("process %d: |R| = %d < n-f = %d", i, len(res), n-f)
		}
		set := make(map[dist.ProcID]bool, len(res))
		for _, e := range res {
			set[e.Proc] = true
		}
		sets = append(sets, set)
	}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if !subset(sets[i], sets[j]) && !subset(sets[j], sets[i]) {
				t.Errorf("containment violated between %d and %d", i, j)
			}
		}
	}
}

func subset(a, b map[dist.ProcID]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestStableVectorOverChannels(t *testing.T) {
	runStableVectorCluster(t, func(p []dist.Process) (*Cluster, error) {
		return NewChannelCluster(p, Config{})
	}, 5, 1)
}

func TestStableVectorOverTCP(t *testing.T) {
	runStableVectorCluster(t, func(p []dist.Process) (*Cluster, error) {
		return NewTCPCluster(p, Config{})
	}, 4, 1)
}

func TestTCPClusterGather(t *testing.T) {
	const n = 4
	procs := make([]dist.Process, n)
	impl := make([]*gatherProc, n)
	for i := range procs {
		impl[i] = newGatherProc(n, nil)
		procs[i] = impl[i]
	}
	c, err := NewTCPCluster(procs, Config{})
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
}

func TestMailbox(t *testing.T) {
	m := newMailbox()
	m.Push(dist.Message{Kind: "a"})
	m.Push(dist.Message{Kind: "b"})
	got, err := m.Pop()
	if err != nil || got.Kind != "a" {
		t.Errorf("Pop = %v, %v", got.Kind, err)
	}
	m.Close()
	// Drain the remaining message, then observe closure.
	got, err = m.Pop()
	if err != nil || got.Kind != "b" {
		t.Errorf("Pop after close = %v, %v (should drain)", got.Kind, err)
	}
	if _, err := m.Pop(); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	m.Push(dist.Message{Kind: "c"}) // push after close is a no-op
	if _, err := m.Pop(); !errors.Is(err, ErrClosed) {
		t.Errorf("push after close should be dropped")
	}
}

func TestMailboxBlockingPop(t *testing.T) {
	m := newMailbox()
	done := make(chan dist.Message, 1)
	go func() {
		msg, err := m.Pop()
		if err == nil {
			done <- msg
		}
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	m.Push(dist.Message{Kind: "x"})
	select {
	case msg := <-done:
		if msg.Kind != "x" {
			t.Errorf("got %q", msg.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop did not wake up")
	}
}
