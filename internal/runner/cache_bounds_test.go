// Tests for the Cache capacity bounds (LRU over settled entries) and the
// Backing disk tier: the regression suite for the "singleflight cache grows
// without limit under a zipfian tail" bug and for warm starts.

package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheMaxEntriesLRU(t *testing.T) {
	c := &Cache[string, int]{MaxEntries: 2}
	compute := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	mustDo := func(key string, v int) {
		t.Helper()
		got, err := c.Do(key, compute(v))
		if err != nil || got != v {
			t.Fatalf("Do(%s) = %d, %v", key, got, err)
		}
	}
	mustDo("a", 1)
	mustDo("b", 2)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Touch a so b is the LRU entry, then overflow with c.
	if v, _, err := c.DoContext(context.Background(), "a", nil); err != nil || v != 1 {
		t.Fatalf("hit a = %d, %v", v, err)
	}
	mustDo("c", 3)
	if c.Len() != 2 {
		t.Fatalf("Len after eviction = %d, want 2", c.Len())
	}
	// The LRU entry b was evicted; the refreshed a survived.
	v, out, err := c.DoContext(context.Background(), "a", func(context.Context) (int, error) {
		return 0, errors.New("a was evicted: it was the most recently used entry")
	})
	if err != nil || v != 1 || out != OutcomeHit {
		t.Fatalf("a = %d, %v, %v; want cached 1", v, out, err)
	}
	ran := false
	got, err := c.Do("b", func() (int, error) { ran = true; return 20, nil })
	if err != nil || got != 20 || !ran {
		t.Fatalf("b after eviction = %d, ran=%v, err=%v (want recompute)", got, ran, err)
	}
}

func TestCacheMaxBytes(t *testing.T) {
	c := &Cache[string, []byte]{
		MaxBytes: 100,
		Size:     func(b []byte) int64 { return int64(len(b)) },
	}
	put := func(key string, n int) {
		t.Helper()
		if _, err := c.Do(key, func() ([]byte, error) { return make([]byte, n), nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 40)
	put("b", 40)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("Bytes = %d, want 80", got)
	}
	put("c", 40) // 120 > 100: evicts a (oldest)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("Bytes after eviction = %d, want 80", got)
	}
	ran := false
	if _, err := c.Do("a", func() ([]byte, error) { ran = true; return nil, nil }); err != nil || !ran {
		t.Fatalf("a should have been evicted (ran=%v, err=%v)", ran, err)
	}
}

// TestCacheBoundedUnderZipfianTail is the original bug as a scenario: a
// stream of mostly one-off keys must not grow the cache past its cap.
func TestCacheBoundedUnderZipfianTail(t *testing.T) {
	c := &Cache[string, int]{MaxEntries: 64}
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("one-off-%d", i)
		if i%10 == 0 {
			key = fmt.Sprintf("hot-%d", i%30)
		}
		if _, err := c.Do(key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > 64 {
			t.Fatalf("after %d requests the cache holds %d entries (cap 64)", i+1, n)
		}
	}
}

// TestCacheErrorEntriesCountAgainstCap: cached errors occupy entries (zero
// bytes) and are evictable like values.
func TestCacheErrorEntriesCountAgainstCap(t *testing.T) {
	c := &Cache[string, int]{MaxEntries: 1}
	wantErr := errors.New("deterministic failure")
	if _, err := c.Do("bad", func() (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Do("good", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	// "bad" was evicted by "good": it must recompute.
	ran := false
	if _, err := c.Do("bad", func() (int, error) { ran = true; return 0, wantErr }); !errors.Is(err, wantErr) || !ran {
		t.Fatalf("evicted error entry not recomputed (ran=%v, err=%v)", ran, err)
	}
}

// mapBacking is an in-memory Backing for tests.
type mapBacking struct {
	mu     sync.Mutex
	m      map[string][]byte
	loads  int
	stores int
}

func newMapBacking() *mapBacking { return &mapBacking{m: make(map[string][]byte)} }

func (b *mapBacking) Load(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBacking) Store(key string, v []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stores++
	b.m[key] = append([]byte(nil), v...)
}

func TestCacheBackingDiskHit(t *testing.T) {
	bk := newMapBacking()
	bk.m["warm"] = []byte("stored")
	c := &Cache[string, []byte]{Backing: bk}
	v, out, err := c.DoContext(context.Background(), "warm", func(context.Context) ([]byte, error) {
		return nil, errors.New("fn ran despite a backing hit")
	})
	if err != nil || out != OutcomeDisk || string(v) != "stored" {
		t.Fatalf("= %q, %v, %v; want stored/disk/nil", v, out, err)
	}
	// The disk hit is now a settled memory entry: the next call is a plain
	// hit and does not touch the backing again.
	loadsBefore := bk.loads
	v, out, err = c.DoContext(context.Background(), "warm", nil)
	if err != nil || out != OutcomeHit || string(v) != "stored" {
		t.Fatalf("second = %q, %v, %v; want stored/hit/nil", v, out, err)
	}
	if bk.loads != loadsBefore {
		t.Fatalf("memory hit consulted the backing (%d loads)", bk.loads-loadsBefore)
	}
}

func TestCacheBackingStoreOnSuccess(t *testing.T) {
	bk := newMapBacking()
	c := &Cache[string, []byte]{Backing: bk}
	if _, err := c.Do("k", func() ([]byte, error) { return []byte("computed"), nil }); err != nil {
		t.Fatal(err)
	}
	// Store runs on the flight goroutine after the flight settles, so Do
	// returning does not guarantee the write landed yet; poll briefly.
	var got []byte
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		bk.mu.Lock()
		got = bk.m["k"]
		bk.mu.Unlock()
		if got != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if string(got) != "computed" {
		t.Fatalf("backing holds %q, want computed result", got)
	}
}

func TestCacheBackingNotPoisonedByFailures(t *testing.T) {
	bk := newMapBacking()
	c := &Cache[string, []byte]{Backing: bk}
	wantErr := errors.New("boom")
	if _, err := c.Do("fail", func() ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatal(err)
	}
	if _, err := c.Do("transient", func() ([]byte, error) {
		return nil, fmt.Errorf("rejected: %w", ErrTransient)
	}); !errors.Is(err, ErrTransient) {
		t.Fatal(err)
	}
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if len(bk.m) != 0 || bk.stores != 0 {
		t.Fatalf("failures reached the backing tier: %v (stores=%d)", bk.m, bk.stores)
	}
}

// TestCacheBackingConcurrentMiss: concurrent first callers for a warm key
// share one flight — exactly one backing load, everyone gets the bytes.
func TestCacheBackingConcurrentMiss(t *testing.T) {
	bk := newMapBacking()
	bk.m["warm"] = []byte("stored")
	c := &Cache[string, []byte]{Backing: bk}
	const n = 16
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.DoContext(context.Background(), "warm", func(context.Context) ([]byte, error) {
				return nil, errors.New("fn must not run for a warm key")
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], outs[i] = v, out
		}()
	}
	wg.Wait()
	disk := 0
	for i := 0; i < n; i++ {
		if string(vals[i]) != "stored" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if outs[i] == OutcomeDisk {
			disk++
		}
	}
	if disk == 0 {
		t.Fatal("no caller observed OutcomeDisk")
	}
	if bk.loads > n {
		t.Fatalf("loads = %d for %d callers", bk.loads, n)
	}
}

// TestCacheBackingSkipsCancelledFlights is the evict-on-cancel parity
// regression: when every waiter abandons a flight, the memory tier evicts
// it even if fn ignores the cancellation and returns a nil error — and the
// disk tier must match, so Backing.Store must not run for it.
func TestCacheBackingSkipsCancelledFlights(t *testing.T) {
	bk := newMapBacking()
	c := &Cache[string, []byte]{Backing: bk, AbandonGrace: 5 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// fn blocks until its flight context is cancelled by the
		// last-waiter-out path, then "succeeds" anyway.
		c.DoContext(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(entered)
			<-fctx.Done()
			return []byte("late success"), nil
		})
	}()
	<-entered
	cancel() // the only waiter walks away; the flight is cancelled + evicted
	<-done

	// The memory tier treated the flight as cancelled: a fresh caller leads
	// a new flight rather than hitting a cached entry.
	ran := false
	v, out, err := c.DoContext(context.Background(), "k", func(context.Context) ([]byte, error) {
		ran = true
		return []byte("fresh"), nil
	})
	if err != nil || !ran || out != OutcomeLeader || string(v) != "fresh" {
		t.Fatalf("retry = %q, %v, %v (ran=%v); want a fresh leader", v, out, err, ran)
	}

	// The disk tier must have matched: no write-through of the cancelled
	// flight's value. The retry's own write lands eventually ("fresh"); give
	// the flight goroutines time so a reintroduced bug cannot hide behind
	// scheduling.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bk.mu.Lock()
		got, ok := bk.m["k"]
		bk.mu.Unlock()
		if ok {
			if string(got) != "fresh" {
				t.Fatalf("backing holds %q — the cancelled flight wrote through", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retry's write-through never landed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let any buggy late Store surface
	bk.mu.Lock()
	defer bk.mu.Unlock()
	if bk.stores != 1 {
		t.Fatalf("backing saw %d stores, want 1 (retry only)", bk.stores)
	}
	if string(bk.m["k"]) != "fresh" {
		t.Fatalf("backing holds %q, want the retry's bytes", bk.m["k"])
	}
}

// TestCacheJoin: Join serves settled successes at once and never consults
// the backing tier or starts a flight; error entries and flights that have
// not been marked running report false at once, without calling joined.
func TestCacheJoin(t *testing.T) {
	bk := newMapBacking()
	bk.m["disk-only"] = []byte("on disk")
	c := &Cache[string, []byte]{Backing: bk}
	ctx := context.Background()
	noJoin := func() { t.Error("joined called without a running flight") }
	if _, ok := c.Join(ctx, "absent", noJoin); ok {
		t.Fatal("Join fabricated a value for an absent key")
	}
	if c.Len() != 0 {
		t.Fatal("Join started a flight")
	}
	loads := bk.loads
	if _, ok := c.Join(ctx, "disk-only", noJoin); ok || bk.loads != loads {
		t.Fatalf("Join consulted the backing tier (ok=%v, loads=%d)", ok, bk.loads-loads)
	}
	if _, err := c.Do("good", func() ([]byte, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Join(ctx, "good", noJoin); !ok || string(v) != "v" {
		t.Fatalf("Join(good) = %q, %v", v, ok)
	}
	wantErr := errors.New("deterministic failure")
	if _, err := c.Do("bad", func() ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatal(err)
	}
	if _, ok := c.Join(ctx, "bad", noJoin); ok {
		t.Fatal("Join served an error entry")
	}
	// A flight that has not called MarkRunning (parked in admission, say)
	// is not joinable: Join answers at once instead of waiting on it.
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do("queued", func() ([]byte, error) { close(started); <-release; return []byte("q"), nil })
	<-started
	if _, ok := c.Join(ctx, "queued", noJoin); ok {
		t.Fatal("Join served an unsettled flight that is not running")
	}
	close(release)
}

// startRunning launches a DoContext flight for key that marks itself
// running and then blocks until release; it returns once the flight is
// joinable, plus the leader's result channel.
func startRunning(t *testing.T, c *Cache[string, []byte], ctx context.Context, key string, release <-chan error) <-chan error {
	t.Helper()
	running := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		_, _, err := c.DoContext(ctx, key, func(fctx context.Context) ([]byte, error) {
			MarkRunning(fctx)
			close(running)
			select {
			case err := <-release:
				if err != nil {
					return nil, err
				}
				return []byte("computed"), nil
			case <-fctx.Done():
				return nil, fctx.Err()
			}
		})
		res <- err
	}()
	<-running
	return res
}

// TestCacheJoinRunningFlight: a joiner waits on a running flight and gets
// its value; joined runs before the wait. It counts as a waiter, so the
// leader abandoning its own call does not cancel the computation.
func TestCacheJoinRunningFlight(t *testing.T) {
	c := &Cache[string, []byte]{}
	lctx, lcancel := context.WithCancel(context.Background())
	release := make(chan error)
	leader := startRunning(t, c, lctx, "k", release)

	var joinedAt atomic.Bool
	got := make(chan []byte, 1)
	go func() {
		v, ok := c.Join(context.Background(), "k", func() { joinedAt.Store(true) })
		if !ok {
			v = nil
		}
		got <- v
	}()
	for deadline := time.Now().Add(5 * time.Second); !joinedAt.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("Join never attached to the running flight")
		}
		time.Sleep(time.Millisecond)
	}
	// The leader walks away; the joiner keeps the flight alive.
	lcancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	release <- nil
	if v := <-got; string(v) != "computed" {
		t.Fatalf("joiner got %q, want the flight's value", v)
	}
	if v, ok := c.Join(context.Background(), "k", nil); !ok || string(v) != "computed" {
		t.Fatalf("settled entry after the join: %q, %v", v, ok)
	}
}

// TestCacheJoinFailedFlight: a joined flight that fails reports false.
func TestCacheJoinFailedFlight(t *testing.T) {
	c := &Cache[string, []byte]{}
	release := make(chan error, 1)
	leader := startRunning(t, c, context.Background(), "k", release)
	joined := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		_, ok := c.Join(context.Background(), "k", func() { close(joined) })
		got <- ok
	}()
	<-joined
	wantErr := errors.New("simulation failed")
	release <- wantErr
	if ok := <-got; ok {
		t.Fatal("Join reported success for a failed flight")
	}
	if err := <-leader; !errors.Is(err, wantErr) {
		t.Fatalf("leader err = %v", err)
	}
}

// TestCacheJoinAbandon: a joiner whose ctx ends returns false at once; the
// flight lives on for its other waiter and is cancelled when that leaves.
func TestCacheJoinAbandon(t *testing.T) {
	c := &Cache[string, []byte]{}
	lctx, lcancel := context.WithCancel(context.Background())
	leader := startRunning(t, c, lctx, "k", make(chan error))
	jctx, jcancel := context.WithCancel(context.Background())
	joined := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		_, ok := c.Join(jctx, "k", func() { close(joined) })
		got <- ok
	}()
	<-joined
	jcancel()
	if ok := <-got; ok {
		t.Fatal("abandoned Join reported success")
	}
	// The leader is now the only waiter; its leaving cancels the flight.
	lcancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("abandoned flight stayed in the cache")
	}
}
