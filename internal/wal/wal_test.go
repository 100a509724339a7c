package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/wire"
)

func sampleMessages() []dist.Message {
	return []dist.Message{
		{From: 1, To: 0, Kind: "sv.report", Round: 0, Payload: wire.EntriesPayload{Entries: []wire.Entry{
			{Proc: 1, Value: geom.NewPoint(1, 2)},
		}}},
		{From: 2, To: 0, Kind: "cc.state", Round: 1, Payload: wire.PolytopePayload{Verts: []geom.Point{
			geom.NewPoint(0, 0), geom.NewPoint(3, 4),
		}}},
		{From: 3, To: 0, Kind: "cc.state", Round: 2, Payload: wire.PointPayload{Value: geom.NewPoint(-1.5, 2.25)}},
	}
}

// writeSampleLog creates a log with input + deliveries (+ optional decision)
// and returns its path.
func writeSampleLog(t *testing.T, decide bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node-0.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInput(0, geom.NewPoint(7, 8)); err != nil {
		t.Fatal(err)
	}
	for _, m := range sampleMessages() {
		if err := w.AppendDelivered(m); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if decide {
		if err := w.AppendDecided(5); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWALRoundTrip(t *testing.T) {
	path := writeSampleLog(t, true)
	rep, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail {
		t.Error("clean log reported a torn tail")
	}
	if rep.Epoch != 0 {
		t.Errorf("epoch = %d, want 0", rep.Epoch)
	}
	if !rep.HasInput || rep.Proc != 0 || !geom.Equal(rep.Input, geom.NewPoint(7, 8), 0) {
		t.Errorf("input record mismatch: %+v", rep)
	}
	if !rep.Decided || rep.DecidedRound != 5 {
		t.Errorf("decision record mismatch: %+v", rep)
	}
	want := sampleMessages()
	if len(rep.Delivered) != len(want) {
		t.Fatalf("replayed %d deliveries, want %d", len(rep.Delivered), len(want))
	}
	for i, m := range rep.Delivered {
		wb, _ := wire.AppendMessage(nil, want[i])
		gb, err := wire.AppendMessage(nil, m)
		if err != nil || string(wb) != string(gb) {
			t.Errorf("delivery %d: replayed %+v, want %+v", i, m, want[i])
		}
	}
	if got := rep.DeliveredFrom(2); got != 1 {
		t.Errorf("DeliveredFrom(2) = %d, want 1", got)
	}
}

func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sampleMessages() {
		if err := w.AppendDelivered(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // no-op: nothing dirty
		t.Fatal(err)
	}
	st := w.Stats()
	// 1 epoch record (synced by Create) + 3 deliveries sharing one sync.
	if st.Appends != 4 || st.Syncs != 2 {
		t.Errorf("stats = %+v, want 4 appends in 2 sync batches", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}
	rep, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Delivered) != 3 {
		t.Errorf("replayed %d deliveries, want 3", len(rep.Delivered))
	}
}

func TestWALReopenAppendsNewEpoch(t *testing.T) {
	path := writeSampleLog(t, false)
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEpoch(); err != nil {
		t.Fatal(err)
	}
	extra := dist.Message{From: 4, To: 0, Kind: "cc.state", Round: 3}
	if err := w.AppendDelivered(extra); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 {
		t.Errorf("epoch after reopen = %d, want 1", rep.Epoch)
	}
	if n := len(rep.Delivered); n != len(sampleMessages())+1 {
		t.Errorf("replayed %d deliveries, want %d", n, len(sampleMessages())+1)
	}
}

func TestWALReplayMissingFile(t *testing.T) {
	if _, err := Replay(filepath.Join(t.TempDir(), "nope.wal")); err == nil {
		t.Error("replay of a missing file should error")
	}
}

func TestWALEmptyFileHasNoEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("replay of empty file = %v, want ErrCorrupt", err)
	}
}

// TestAbandonLosesUnsyncedTail: Abandon is the crash-shaped close. Records a
// Sync covered survive; the tail buffered after it is gone, where an orderly
// Close would have flushed it; and in mirror mode TakeUnsynced hands over
// exactly that tail, in append order.
func TestAbandonLosesUnsyncedTail(t *testing.T) {
	msgs := sampleMessages()
	for _, orderly := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "node-0.wal")
		w, err := CreateWith(path, Options{Mirror: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendDelivered(msgs[0]); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs[1:] {
			if err := w.AppendDelivered(m); err != nil {
				t.Fatal(err)
			}
		}
		want := 1
		if orderly {
			want = len(msgs)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			w.Abandon()
			w.Abandon() // idempotent
		}
		if err := w.AppendDecided(1); !errors.Is(err, ErrClosed) {
			t.Errorf("append after close = %v, want ErrClosed", err)
		}
		rep, err := Replay(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Delivered) != want {
			t.Errorf("orderly=%v: replayed %d deliveries, want %d", orderly, len(rep.Delivered), want)
		}
	}

	w, err := CreateWith(filepath.Join(t.TempDir(), "node-0.wal"), Options{Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abandon()
	for _, m := range msgs {
		if err := w.AppendDelivered(m); err != nil {
			t.Fatal(err)
		}
	}
	tail := w.TakeUnsynced()
	if len(tail) != len(msgs) {
		t.Fatalf("TakeUnsynced returned %d bodies, want %d", len(tail), len(msgs))
	}
	for i, m := range msgs {
		want, err := EncodeDelivered(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(tail[i]) != string(want) {
			t.Errorf("tail body %d is not the record appended %d-th", i, i)
		}
	}
	if again := w.TakeUnsynced(); len(again) != 0 {
		t.Errorf("second TakeUnsynced returned %d bodies", len(again))
	}
}
