package runtime

import (
	"errors"
	"sync"
	"testing"

	"chc/internal/dist"
)

// TestMailboxPushAfterCloseConcurrent hammers Push from several goroutines
// racing a Close: no panic, and nothing pushed after close is observable
// beyond what was queued before (run with -race).
func TestMailboxPushAfterCloseConcurrent(t *testing.T) {
	m := newMailbox()
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				m.Push(dist.Message{From: dist.ProcID(w), Round: i})
			}
		}()
	}
	close(start)
	m.Close() // races the writers: some pushes land, some are dropped
	wg.Wait()

	popped := 0
	for {
		if _, err := m.Pop(); err != nil {
			break
		}
		popped++
	}
	if popped > writers*perWriter {
		t.Errorf("popped %d messages, more than were ever pushed", popped)
	}
	// The mailbox is now closed and drained: further pushes must be no-ops.
	m.Push(dist.Message{Kind: "late"})
	if _, err := m.Pop(); !errors.Is(err, ErrClosed) {
		t.Error("push after close+drain must not resurrect the mailbox")
	}
}

// TestMailboxDrainSemantics: everything pushed before Close must be
// poppable after Close, in order, by concurrent consumers, with no loss or
// duplication.
func TestMailboxDrainSemantics(t *testing.T) {
	m := newMailbox()
	const total = 500
	for i := 0; i < total; i++ {
		m.Push(dist.Message{Round: i})
	}
	m.Close()

	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, err := m.Pop()
				if err != nil {
					return
				}
				mu.Lock()
				if seen[msg.Round] {
					t.Errorf("message %d delivered twice", msg.Round)
				}
				seen[msg.Round] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != total {
		t.Errorf("drained %d messages, want %d", len(seen), total)
	}
}

// TestMailboxConcurrentPopClose: consumers blocked in Pop must all wake on
// Close and report ErrClosed once the queue is empty.
func TestMailboxConcurrentPopClose(t *testing.T) {
	m := newMailbox()
	const consumers = 8
	errs := make(chan error, consumers)
	for c := 0; c < consumers; c++ {
		go func() {
			_, err := m.Pop()
			errs <- err
		}()
	}
	m.Close()
	for c := 0; c < consumers; c++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Pop woke with %v, want ErrClosed", err)
		}
	}
}

// TestMailboxSteadyStateDoesNotAllocate: once the queue has reached its
// working size, pushes and pops reuse its backing array — with the queue
// drained between bursts and with a backlog that never drains — each pop
// publishes its record as consumed, and no popped slot keeps its message.
func TestMailboxSteadyStateDoesNotAllocate(t *testing.T) {
	m := newMailbox()
	msg := dist.Message{Kind: "x", Payload: &struct{}{}}
	rec := uint64(0)
	push := func() {
		rec++
		m.pushRecord(msg, rec)
	}
	pop := func() {
		if _, err := m.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		for range 8 {
			push()
		}
		for range 8 {
			pop()
		}
		for range 3 {
			push()
		}
		for range 20 {
			push()
			pop()
		}
		for range 3 {
			pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a push/pop cycle allocates %v objects, want 0", allocs)
	}
	for range 3 {
		push()
	}
	pop()
	if got := m.consumed.Load(); got != rec-2 {
		t.Errorf("consumed = %d after popping record %d", got, rec-2)
	}
	for i, e := range m.queue[:m.head] {
		if e != (mailEntry{}) {
			t.Errorf("popped slot %d still holds %+v", i, e)
		}
	}
}
