// Fleet e2e under chaos: a coordinator sharding over three real miraged
// worker stacks (server.Server over chaos-wrapped backends) must serve
// byte-identical responses to a single clean node while workers stall,
// fail transiently, die mid-request and restart. Test names carry the
// Chaos prefix so CI's chaos-smoke job runs this suite under -race.
//
// The fleet contract (DESIGN.md §14):
//   - sharded responses are byte-identical to a single-node server's;
//   - a worker killed mid-run costs no request: transport errors fail over
//     to the next replica on the ring transparently;
//   - a draining worker still answers cache peering, so its keys are
//     served from its cache — not recomputed — until the ring re-shards;
//   - a restarted worker re-enters warm: its disk store serves the keys it
//     owned before the restart with zero new simulations.

package chaos_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/store"
)

// mortal wraps a worker handler so tests can kill and resurrect it behind
// a stable URL (the ring addresses workers by URL, so a restarted worker
// must come back at the same address, exactly like a restarted process
// re-binding its port).
type mortal struct {
	mu sync.Mutex
	h  http.Handler
}

func (m *mortal) set(h http.Handler) {
	m.mu.Lock()
	m.h = h
	m.mu.Unlock()
}

func (m *mortal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	h := m.h
	m.mu.Unlock()
	if h == nil {
		// Dead: abort the connection so clients see a transport error, the
		// same shape as a killed process.
		panic(http.ErrAbortHandler)
	}
	h.ServeHTTP(w, r)
}

// fleetPeerSecret is the shared peering secret every e2e worker runs with,
// so the whole suite exercises the authenticated peering path.
const fleetPeerSecret = "chaos-fleet-secret"

// fleetWorker is one worker slot: a stable URL fronting a (replaceable)
// server.Server over its own backend and optional disk store.
type fleetWorker struct {
	inner *fakeInner
	srv   *server.Server
	st    *store.Store
	mort  *mortal
	ts    *httptest.Server
	peers []string // fleet membership: the cache-peering allowlist
}

// newFleetWorkers allocates n workers' stable URL slots, then boots each
// with the full fleet allowlist and shared secret wired — the in-process
// equivalent of every worker getting -peers/-peer-auth. dirs[i] != ""
// adds a persistent store to worker i.
func newFleetWorkers(t *testing.T, n int, dirs []string, opt func(int, *server.Config)) []*fleetWorker {
	t.Helper()
	ws := make([]*fleetWorker, n)
	peers := make([]string, n)
	for i := range ws {
		ws[i] = &fleetWorker{mort: &mortal{}}
		ws[i].ts = httptest.NewServer(ws[i].mort)
		t.Cleanup(ws[i].ts.Close)
		peers[i] = ws[i].ts.URL
	}
	for i, w := range ws {
		w.peers = peers
		dir := ""
		if dirs != nil {
			dir = dirs[i]
		}
		var o func(*server.Config)
		if opt != nil {
			i := i
			o = func(c *server.Config) { opt(i, c) }
		}
		w.boot(t, dir, o)
	}
	return ws
}

// boot (re)builds the worker's server stack — process start or restart.
func (w *fleetWorker) boot(t *testing.T, dir string, opt func(*server.Config)) {
	t.Helper()
	w.inner = &fakeInner{}
	cfg := server.Config{
		Backend:        w.inner,
		DefaultTimeout: 30 * time.Second,
		PeerFetch:      fleet.NewPeerFetch(nil, w.peers, fleetPeerSecret),
		PeerAuth:       fleetPeerSecret,
	}
	if dir != "" {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w.st = st
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	if opt != nil {
		opt(&cfg)
	}
	w.srv = server.New(cfg)
	w.mort.set(w.srv)
}

// kill simulates the process dying: every request aborts at the transport
// layer, including health probes and peering.
func (w *fleetWorker) kill() {
	w.mort.set(nil)
	if w.st != nil {
		w.st.Close()
	}
}

func newFleetCoordinator(t *testing.T, workers []*fleetWorker, opt func(*fleet.Config)) *fleet.Coordinator {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	cfg := fleet.Config{
		Workers:       urls,
		ProbeInterval: 50 * time.Millisecond,
		HedgeMin:      30 * time.Millisecond,
		HedgeMax:      30 * time.Millisecond,
	}
	if opt != nil {
		opt(&cfg)
	}
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// through posts a body at the coordinator over real HTTP.
func through(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if body != "" {
		resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	} else {
		resp, err = http.Get(ts.URL + path)
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", path, err)
	}
	return resp, string(b)
}

// TestChaosFleetByteIdenticalUnderFaults: three workers injecting stalls,
// transients and partials must — through hedging, failover and retries —
// converge every key onto bytes identical to a clean single-node server.
func TestChaosFleetByteIdenticalUnderFaults(t *testing.T) {
	workers := newFleetWorkers(t, 3, nil, func(i int, c *server.Config) {
		inj, err := chaos.NewInjector(chaos.Config{
			Seed:            fmt.Sprintf("fleet-w%d", i),
			PTransient:      0.3,
			PStall:          0.3,
			PPartial:        0.2,
			MaxFaultsPerKey: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Backend = chaos.Wrap(c.Backend, inj)
	})
	coord := newFleetCoordinator(t, workers, nil)
	front := httptest.NewServer(coord)
	defer front.Close()
	ref := server.New(server.Config{Backend: &fakeInner{}, DefaultTimeout: 30 * time.Second})

	const seeds = 5
	for s := 0; s < seeds; s++ {
		body := runBody(fmt.Sprintf("fleet-%d", s), 2000)
		want := post(t, ref, "/v1/run", body)
		if want.Code != 200 {
			t.Fatalf("reference: status %d", want.Code)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, got := through(t, front, "/v1/run", body)
			if resp.StatusCode == 200 {
				if got != want.Body.String() {
					t.Fatalf("seed %d: fleet bytes diverged from single node:\n got: %s\nwant: %s",
						s, got, want.Body.String())
				}
				if resp.Header.Get("X-Mirage-Shard") == "" {
					t.Fatalf("seed %d: 200 without X-Mirage-Shard", s)
				}
				break
			}
			// Transients surface as 500s naming the injection; stalls as
			// 504s when every replica's budget conspires. Both are fixed by
			// retrying — anything else is a contract break.
			if resp.StatusCode != 500 && resp.StatusCode != 504 {
				t.Fatalf("seed %d: status %d: %s", s, resp.StatusCode, got)
			}
			if resp.StatusCode == 500 && !strings.Contains(got, "chaos: injected") {
				t.Fatalf("seed %d: 500 not from injection: %s", s, got)
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d never converged (last status %d)", s, resp.StatusCode)
			}
		}
	}

	// The sweep — the paper's Figures 7/8/9b — must converge too.
	sweepBody := `{"scale": "quick", "timeout_ms": 5000}`
	wantSweep := post(t, ref, "/v1/sweep", sweepBody)
	if wantSweep.Code != 200 {
		t.Fatalf("reference sweep: status %d", wantSweep.Code)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, got := through(t, front, "/v1/sweep", sweepBody)
		if resp.StatusCode == 200 {
			if got != wantSweep.Body.String() {
				t.Fatal("fleet sweep bytes diverged from single node")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never converged (last status %d)", resp.StatusCode)
		}
	}
}

// TestChaosFleetSurvivesWorkerKill: killing a worker mid-run loses no
// request — transport errors fail over to the next replica before the
// prober even notices — and the prober then re-shards it out of the ring.
func TestChaosFleetSurvivesWorkerKill(t *testing.T) {
	workers := newFleetWorkers(t, 3, nil, nil)
	coord := newFleetCoordinator(t, workers, nil)
	coord.ProbeOnce(context.Background())
	front := httptest.NewServer(coord)
	defer front.Close()
	ref := server.New(server.Config{Backend: &fakeInner{}, DefaultTimeout: 30 * time.Second})

	const seeds = 24
	want := make([]string, seeds)
	for s := range want {
		rec := post(t, ref, "/v1/run", runBody(fmt.Sprintf("kill-%d", s), 5000))
		if rec.Code != 200 {
			t.Fatalf("reference seed %d: status %d", s, rec.Code)
		}
		want[s] = rec.Body.String()
	}

	for s := 0; s < seeds; s++ {
		if s == seeds/3 {
			// Kill one worker mid-sweep-of-keys, probe NOT yet run: the next
			// requests owned by it must fail over on the transport error.
			workers[1].kill()
		}
		if s == seeds/2 {
			// Now let the prober notice; the ring re-shards around the corpse.
			coord.ProbeOnce(context.Background())
			if !coord.Ring().Down(workers[1].ts.URL) {
				t.Fatal("prober did not evict the killed worker")
			}
		}
		resp, got := through(t, front, "/v1/run", runBody(fmt.Sprintf("kill-%d", s), 5000))
		if resp.StatusCode != 200 {
			t.Fatalf("seed %d: status %d (a worker kill must never cost a request): %s",
				s, resp.StatusCode, got)
		}
		if got != want[s] {
			t.Fatalf("seed %d: bytes diverged after worker kill", s)
		}
	}
	reg := coord.Telemetry().Reg()
	if reg.Counter("fleet.ring.reshards").Value() == 0 {
		t.Fatal("kill never re-sharded the ring")
	}
}

// TestChaosFleetPeeringAndWarmRestart walks the full lifecycle the fleet
// exists for:
//  1. the owner computes a key once;
//  2. the owner drains — requests fail over, but the replica PEERS the
//     bytes off the draining owner's cache instead of recomputing;
//  3. the prober evicts the drained owner; the replica now serves from its
//     own cache;
//  4. the owner restarts and re-enters the ring warm: its disk store
//     serves the key with zero new simulations.
//
// Through all of it, the fleet simulates the key exactly once.
func TestChaosFleetPeeringAndWarmRestart(t *testing.T) {
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	workers := newFleetWorkers(t, 3, dirs, nil)
	coord := newFleetCoordinator(t, workers, nil)
	coord.ProbeOnce(context.Background())
	front := httptest.NewServer(coord)
	defer front.Close()

	totalRuns := func() int64 {
		var n int64
		for _, w := range workers {
			n += w.inner.runs.Load()
		}
		return n
	}

	// Derive the canonical key exactly as the coordinator does and find
	// which worker the ring makes its owner.
	const seed = "peer-0"
	key, err := server.CanonicalRunKey(&server.RunRequest{Mix: []string{"hmmer", "bzip2"}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ownerURL, ok := coord.Ring().Owner(key)
	if !ok {
		t.Fatal("ring has no owner for the key")
	}
	ownerIdx := -1
	for i, w := range workers {
		if w.ts.URL == ownerURL {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %q is not a known worker", ownerURL)
	}
	body := runBody(seed, 5000)
	var want string
	owner := workers[ownerIdx]

	// 1. First request: the owner simulates, everyone else stays idle.
	resp, got := through(t, front, "/v1/run", body)
	if resp.StatusCode != 200 {
		t.Fatalf("initial request: status %d", resp.StatusCode)
	}
	want = got
	if shard := resp.Header.Get("X-Mirage-Shard"); shard != owner.ts.URL {
		t.Fatalf("served by %s, ring says owner is %s", shard, owner.ts.URL)
	}
	if totalRuns() != 1 {
		t.Fatalf("initial request ran %d simulations, want 1", totalRuns())
	}
	waitForStorePut(t, owner.st)

	// 2. Drain the owner (not yet probed out): the coordinator fails over
	// on the 503, and the replica peers the bytes off the draining owner —
	// its simulation-rejecting drain gate does not cover the peering
	// endpoint, so cached keys stay reachable to the fleet while it drains.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := owner.srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	resp, got = through(t, front, "/v1/run", body)
	if resp.StatusCode != 200 {
		t.Fatalf("failover request: status %d: %s", resp.StatusCode, got)
	}
	if got != want {
		t.Fatal("failover bytes diverged")
	}
	servedBy := resp.Header.Get("X-Mirage-Shard")
	if servedBy == owner.ts.URL {
		t.Fatal("draining owner served a simulation request")
	}
	if totalRuns() != 1 {
		t.Fatalf("failover recomputed the key (%d total runs, want 1 via peering)", totalRuns())
	}
	var replica *fleetWorker
	for _, w := range workers {
		if w.ts.URL == servedBy {
			replica = w
		}
	}
	if replica == nil {
		t.Fatalf("shard %q is not a known worker", servedBy)
	}
	if hits := replica.srv.Telemetry().Reg().Counter("server.peer.hits").Value(); hits != 1 {
		t.Fatalf("replica server.peer.hits = %d, want 1", hits)
	}

	// 3. The prober evicts the drained owner; the replica serves from its
	// own cache now (it adopted the key when it peered the bytes).
	coord.ProbeOnce(context.Background())
	if !coord.Ring().Down(owner.ts.URL) {
		t.Fatal("prober did not evict the draining owner")
	}
	resp, got = through(t, front, "/v1/run", body)
	if resp.StatusCode != 200 || got != want {
		t.Fatalf("post-evict request: status %d, identical=%v", resp.StatusCode, got == want)
	}
	if totalRuns() != 1 {
		t.Fatalf("post-evict request recomputed the key (%d total runs)", totalRuns())
	}

	// 4. Kill the owner process, restart it over the same store directory,
	// and let the prober re-admit it. It owns the key again — and serves it
	// from disk, warm, without a single new simulation.
	preRestart := totalRuns() // the owner's counter dies with its process
	owner.kill()
	coord.ProbeOnce(context.Background())
	owner.boot(t, dirs[ownerIdx], nil)
	coord.ProbeOnce(context.Background())
	if coord.Ring().Down(owner.ts.URL) {
		t.Fatal("restarted worker did not re-enter the ring")
	}
	resp, got = through(t, front, "/v1/run", body)
	if resp.StatusCode != 200 || got != want {
		t.Fatalf("warm-restart request: status %d, identical=%v", resp.StatusCode, got == want)
	}
	if shard := resp.Header.Get("X-Mirage-Shard"); shard != owner.ts.URL {
		t.Fatalf("restarted owner did not reclaim its key (served by %s)", shard)
	}
	if resp.Header.Get("X-Cache") != "disk" {
		t.Fatalf("warm restart served X-Cache %q, want disk", resp.Header.Get("X-Cache"))
	}
	if owner.inner.runs.Load() != 0 {
		t.Fatalf("restarted owner resimulated (%d runs), store should have served", owner.inner.runs.Load())
	}
	// The restarted owner got a fresh backend, so its pre-restart counter
	// (holding the lifecycle's single simulation) is gone; no LIVE backend
	// may have simulated since.
	if preRestart != 1 || totalRuns() != 0 {
		t.Fatalf("lifecycle ran %d simulations before restart and %d after, want exactly 1 fleet-wide",
			preRestart, totalRuns())
	}
}

// waitForStorePut blocks until the store has absorbed at least one write
// (write-through is asynchronous with respect to the response).
func waitForStorePut(t *testing.T, st *store.Store) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Puts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("store never absorbed the write-through")
		}
		time.Sleep(time.Millisecond)
	}
}

// slowBackend delays every simulation by delay (or until its context ends)
// and counts the simulations it started.
type slowBackend struct {
	server.Backend
	delay   time.Duration
	started *atomic.Int64
}

func (b slowBackend) Run(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
	b.started.Add(1)
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.Backend.Run(ctx, cfg)
}

// TestChaosFleetHedgedColdKeySimulatedOnce: after a history of hits the
// hedge budget sits at -hedge-min, so a cold key whose simulation outlasts
// it is hedged to a non-owner while the owner simulates. The non-owner must
// wait on the owner's running flight, not simulate the key a second time:
// exactly one backend simulation per cold key fleet-wide, with bytes
// identical to a clean single node.
func TestChaosFleetHedgedColdKeySimulatedOnce(t *testing.T) {
	var started atomic.Int64
	workers := newFleetWorkers(t, 3, nil, func(i int, c *server.Config) {
		c.Backend = slowBackend{Backend: c.Backend, delay: 300 * time.Millisecond, started: &started}
	})
	coord := newFleetCoordinator(t, workers, func(c *fleet.Config) {
		c.HedgeMin = 20 * time.Millisecond
		c.HedgeMax = 10 * time.Second
	})
	coord.ProbeOnce(context.Background())
	front := httptest.NewServer(coord)
	defer front.Close()
	ref := server.New(server.Config{Backend: &fakeInner{}, DefaultTimeout: 30 * time.Second})

	// Warm two hot keys on their owners directly, keeping simulations out
	// of the coordinator's latency history, then build that history from
	// hits alone.
	hot := []string{runBody("hot-0", 30000), runBody("hot-1", 30000)}
	for _, body := range hot {
		var req server.RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		key, err := server.CanonicalRunKey(&req)
		if err != nil {
			t.Fatal(err)
		}
		owner, _ := coord.Ring().Owner(key)
		for _, w := range workers {
			if w.ts.URL == owner {
				if rec := post(t, w.srv, "/v1/run", body); rec.Code != 200 {
					t.Fatalf("warm: status %d", rec.Code)
				}
			}
		}
	}
	for i := 0; i < 400; i++ {
		if resp, got := through(t, front, "/v1/run", hot[i%2]); resp.StatusCode != 200 {
			t.Fatalf("hit %d: status %d: %s", i, resp.StatusCode, got)
		}
	}

	reg := coord.Telemetry().Reg()
	hedgesBefore := reg.Counter("fleet.hedges").Value()
	const cold = 3
	for s := 0; s < cold; s++ {
		body := runBody(fmt.Sprintf("cold-%d", s), 30000)
		want := post(t, ref, "/v1/run", body)
		if want.Code != 200 {
			t.Fatalf("reference: status %d", want.Code)
		}
		before := started.Load()
		resp, got := through(t, front, "/v1/run", body)
		if resp.StatusCode != 200 || got != want.Body.String() {
			t.Fatalf("cold key %d: status %d, bytes identical to the single node: %v", s, resp.StatusCode, got == want.Body.String())
		}
		// A hedge loser is cancelled as the winner replies; give any
		// simulation it would start the moment to show up.
		time.Sleep(50 * time.Millisecond)
		if n := started.Load() - before; n != 1 {
			t.Fatalf("cold key %d: %d backend simulations fleet-wide, want 1", s, n)
		}
	}
	if hedges := reg.Counter("fleet.hedges").Value() - hedgesBefore; hedges < cold {
		t.Fatalf("%d hedges over %d cold keys: the budget never sat at -hedge-min", hedges, cold)
	}
}
