package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// waitForCall blocks until key has a call registered, so a test can start
// a waiter strictly after the winner claimed the key.
func waitForCall[K comparable, V any](t *testing.T, f *flight[K, V], key K) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		_, ok := f.calls[key]
		f.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("winner never claimed the key")
		}
		time.Sleep(time.Millisecond)
	}
}

// A panicking winner must release its waiters with an error, unpin the
// key, and keep unwinding — a stranded waiter or a pinned dead call would
// wedge every later request for the key.
func TestFlightPanickingWinner(t *testing.T) {
	f := &flight[string, int]{name: "test"}
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		f.do("k", func() (int, error) {
			<-release
			panic("builder bug")
		}, nil)
	}()
	waitForCall(t, f, "k")
	waited := make(chan error, 1)
	go func() {
		_, hit, err := f.do("k", func() (int, error) { return 0, errors.New("waiter computed") }, nil)
		if !hit {
			err = errors.New("waiter did not join the winner's call")
		}
		waited <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter block on done
	close(release)
	if r := <-panicked; r != "builder bug" {
		t.Fatalf("panic value %v, want the builder's", r)
	}
	select {
	case err := <-waited:
		if err == nil || !strings.Contains(err.Error(), "test flight panicked") {
			t.Fatalf("waiter error %v, want the panic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded by a panicking winner")
	}
	if n := f.len(); n != 0 {
		t.Fatalf("%d entries pinned after a panic", n)
	}
	v, hit, err := f.do("k", func() (int, error) { return 7, nil }, nil)
	if v != 7 || hit || err != nil {
		t.Fatalf("recompute after panic: v=%d hit=%v err=%v", v, hit, err)
	}
}

// A waiter whose winner was cancelled (someone else's disconnect) retries
// with its own live context instead of inheriting the cancellation.
func TestFlightCancelledWinnerLiveWaiter(t *testing.T) {
	f := &flight[string, int]{name: "test"}
	release := make(chan struct{})
	cancelled := &fault.CancelledError{Phase: "decompose", Cause: context.Canceled}
	go f.do("k", func() (int, error) {
		<-release
		return 0, cancelled
	}, nil)
	waitForCall(t, f, "k")
	live := context.Background()
	var computed atomic.Int64
	retry := func(err error) error {
		if _, ok := fault.Cancelled(err); !ok {
			return err
		}
		return live.Err()
	}
	done := make(chan struct{})
	var v int
	var hit bool
	var err error
	go func() {
		defer close(done)
		v, hit, err = f.do("k", func() (int, error) {
			computed.Add(1)
			return 42, nil
		}, retry)
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-done
	if err != nil || v != 42 || hit || computed.Load() != 1 {
		t.Fatalf("waiter after a cancelled winner: v=%d hit=%v err=%v computed=%d", v, hit, err, computed.Load())
	}
	// The retried value is pinned like any other success.
	if v, hit, err := f.do("k", func() (int, error) { return 0, errors.New("recomputed") }, retry); v != 42 || !hit || err != nil {
		t.Fatalf("retried value not pinned: v=%d hit=%v err=%v", v, hit, err)
	}
}

// A failed call is not pinned: its waiters see the failure, and the next
// request recomputes.
func TestFlightFailureNotPinned(t *testing.T) {
	f := &flight[int, string]{name: "test"}
	release := make(chan struct{})
	boom := errors.New("boom")
	go f.do(1, func() (string, error) {
		<-release
		return "", boom
	}, nil)
	waitForCall(t, f, 1)
	waited := make(chan error, 1)
	go func() {
		_, _, err := f.do(1, func() (string, error) { return "waiter", nil }, nil)
		waited <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-waited; !errors.Is(err, boom) {
		t.Fatalf("waiter error %v, want the winner's failure", err)
	}
	if n := f.len(); n != 0 {
		t.Fatalf("failed call left %d entries", n)
	}
	v, hit, err := f.do(1, func() (string, error) { return "fresh", nil }, nil)
	if v != "fresh" || hit || err != nil {
		t.Fatalf("retry after failure: v=%q hit=%v err=%v", v, hit, err)
	}
}

// The entry cap evicts instead of growing.
func TestFlightBounded(t *testing.T) {
	f := &flight[int, int]{name: "test", max: 4}
	for i := 0; i < 10; i++ {
		if _, _, err := f.do(i, func() (int, error) { return i, nil }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.len(); n != 4 {
		t.Fatalf("%d entries, want the cap of 4", n)
	}
	f.purge()
	if n := f.len(); n != 0 {
		t.Fatalf("purge left %d entries", n)
	}
}
