// Package runtime executes the protocol state machines of package dist
// under real concurrency: one goroutine per process, connected either by
// in-process mailboxes or by TCP sockets framed with the package wire codec.
// Protocol logic is therefore written once (as dist.Process implementations)
// and exercised both deterministically (package dist) and under true
// parallel, networked execution (this package).
package runtime

import (
	"errors"
	"sync"
	"sync/atomic"

	"chc/internal/dist"
)

// ErrClosed is returned by Pop after Close once the mailbox has drained.
var ErrClosed = errors.New("runtime: mailbox closed")

// mailbox is an unbounded FIFO queue of messages with blocking Pop. An
// unbounded queue mirrors the paper's reliable-channel model and makes the
// send path non-blocking, which rules out the circular-wait deadlocks a
// bounded inbox could introduce between mutually flooding processes.
//
// Pop advances head instead of re-slicing and zeroes the slot it leaves, so
// a popped message's payload is not kept reachable and the backing array is
// reused once the queue drains (or compacts), as dist's channel queues do.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []mailEntry
	head     int // queue[head:] is waiting
	closed   bool
	consumed atomic.Uint64 // record number of the last message Pop handed out
}

// mailEntry is a queued message and its journal record number (0 when the
// node keeps no journal).
type mailEntry struct {
	msg dist.Message
	rec uint64
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Push enqueues a message. Pushing to a closed mailbox is a no-op (the
// receiver has shut down; the message is dropped like a message to a
// crashed process).
func (m *mailbox) Push(msg dist.Message) { m.pushRecord(msg, 0) }

// pushRecord enqueues a journaled message under its record number. Numbers
// must be pushed in increasing order (the journaling path pushes under the
// lock it numbers under), so the consumed watermark only grows.
func (m *mailbox) pushRecord(msg dist.Message, rec uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if len(m.queue) == cap(m.queue) && m.head > len(m.queue)/2 {
		// Full with a mostly consumed prefix: slide the waiting tail down
		// rather than let append grow the array.
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, mailEntry{msg, rec})
	mMailboxDepth.Add(1)
	m.cond.Signal()
}

// Pop blocks until a message is available or the mailbox is closed and
// drained. A journaled message's record number is published as consumed
// before Pop returns it, so an exit its consumer reaches next covers it.
func (m *mailbox) Pop() (dist.Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.queue) && !m.closed {
		m.cond.Wait()
	}
	if m.head == len(m.queue) {
		return dist.Message{}, ErrClosed
	}
	e := m.queue[m.head]
	m.queue[m.head] = mailEntry{}
	m.head++
	if m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	}
	m.consumed.Store(e.rec)
	mMailboxDepth.Add(-1)
	return e.msg, nil
}

// Close wakes all blocked Pops; queued messages can still be drained.
func (m *mailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}
