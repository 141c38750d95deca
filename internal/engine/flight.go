package engine

import (
	"fmt"
	"sync"
)

// flight is the panic-safe singleflight map both engine caches memoize
// through: the first caller for a key computes the value, concurrent
// callers block on its done channel and share the result, and successful
// results stay pinned as the cache entry. Failed computations are unpinned
// before their waiters wake, so a later request retries instead of
// replaying a stale error forever.
type flight[K comparable, V any] struct {
	// name labels the panic error ("compile", "decomposition").
	name string
	// max bounds the pinned entries (0 = unbounded). On overflow an
	// arbitrary entry is evicted; waiters already holding its call keep
	// their pointer, later requests simply recompute.
	max int

	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one computation: started by the first requester, awaited by
// everyone else via the done channel.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// do returns the value for key, computing it with fn when no call holds
// the key. hit reports that the value came from another caller's call.
//
// retry, when non-nil, decides what a waiter does with a failed call it
// did not start: returning nil re-claims the key (the failed call was
// unpinned before done closed, so the slot is free), any other error is
// returned in place of the failure. A nil retry returns the failure as is.
func (f *flight[K, V]) do(key K, fn func() (V, error), retry func(error) error) (v V, hit bool, err error) {
	for {
		f.mu.Lock()
		c, ok := f.calls[key]
		if !ok {
			break
		}
		f.mu.Unlock()
		<-c.done
		if c.err == nil || retry == nil {
			return c.val, true, c.err
		}
		if err := retry(c.err); err != nil {
			return v, true, err
		}
	}
	if f.calls == nil {
		f.calls = map[K]*call[V]{}
	}
	if f.max > 0 && len(f.calls) >= f.max {
		for k := range f.calls {
			delete(f.calls, k)
			break
		}
	}
	c := &call[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()

	// A panic unwinding through fn (injected chaos, or a builder bug) must
	// not strand waiters on a never-closed channel: unpin the call and
	// release them with an error, then let the panic keep unwinding to the
	// per-job or per-handler recovery above.
	settled := false
	defer func() {
		if settled {
			return
		}
		c.err = fmt.Errorf("engine: %s flight panicked", f.name)
		f.settle(key, c)
	}()
	c.val, c.err = fn()
	settled = true
	f.settle(key, c)
	return c.val, false, c.err
}

// settle publishes a finished call: a failure is unpinned first, so a
// retrying waiter finds the slot free instead of the dead call.
func (f *flight[K, V]) settle(key K, c *call[V]) {
	if c.err != nil {
		f.mu.Lock()
		if f.calls[key] == c {
			delete(f.calls, key)
		}
		f.mu.Unlock()
	}
	close(c.done)
}

// len returns the number of pinned (or in-flight) entries.
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// purge drops every entry.
func (f *flight[K, V]) purge() {
	f.mu.Lock()
	f.calls = nil
	f.mu.Unlock()
}
