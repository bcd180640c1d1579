package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/program"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Fleet inputs. Every /v1/run body names a mix of two benchmarks, a short
// simulation (fleetInsts instructions per application, fleetInterval-cycle
// intervals) and a seed string naming the key. Hot keys come from a universe
// of hotKeys, picked with zipf skew hotSkew.
const (
	fleetInsts    = 20_000
	fleetInterval = 5_000
	hotKeys       = 32
	hotSkew       = 1.1
	// hotRound is one round of hot requests: the same zipf draws every
	// round, split over the clients.
	hotRound = 256
	// clients is the number of closed-loop client goroutines and the
	// connection cap per host: nproc on the reference host.
	clients = 2
	// peerSecret is the fleet's -peer-auth secret.
	peerSecret = "perfbench-peering"
)

// miraged's worker and coordinator defaults (cmd/miraged flags), which the
// benchmark's fleet reproduces.
const (
	workerMaxInFlight  = 2
	workerQueue        = 8
	workerTimeout      = 60 * time.Second
	workerMaxTimeout   = 10 * time.Minute
	workerCacheEntries = 4096
	workerCacheBytes   = 256 << 20
	storeMaxBytes      = 256 << 20
	probeInterval      = time.Second
	hedgeMin           = 100 * time.Millisecond
	hedgeMax           = 10 * time.Second
)

// coldHedgeMin is -hedge-min for fleet-cold, below the default so that
// every cold key is hedged: at 100ms the cold simulations (about 100 ms)
// flipped from run to run between hedged and unhedged regimes. The other
// workloads and the traced run keep the default; the lower the budget, the
// likelier a slow hit is hedged and answered through peering.
const coldHedgeMin = 20 * time.Millisecond

// fleetKey is one /v1/run request of the workload.
type fleetKey struct {
	req  server.RunRequest
	body []byte
	key  string // the canonical job key the workers cache under
}

// fleetKeys yields the keys of one kind (hot or cold). Key i pairs
// benchmark (a+i) mod 26 with benchmark (b+7i) mod 26, offsets drawn from
// the seed: every 26 consecutive keys use each benchmark once in each slot,
// so the simulation cost of a run's keys hardly depends on the seed.
type fleetKeys struct {
	names []string
	a, b  int
	seed  string
}

func newFleetKeys(seed uint64, kind string, stream uint64) fleetKeys {
	names := program.Names()
	rng := rand.New(rand.NewPCG(seed, stream))
	return fleetKeys{names: names, a: rng.IntN(len(names)), b: rng.IntN(len(names)), seed: fmt.Sprintf("pb%d-%s", seed, kind)}
}

func (ks fleetKeys) key(i int) (fleetKey, error) {
	n := len(ks.names)
	mix := []string{ks.names[(ks.a+i)%n], ks.names[(ks.b+7*i)%n]}
	k := fleetKey{req: server.RunRequest{Mix: mix, TargetInsts: fleetInsts, IntervalCycles: fleetInterval,
		Seed: fmt.Sprintf("%s%d", ks.seed, i)}}
	var err error
	if k.body, err = json.Marshal(k.req); err != nil {
		return k, err
	}
	k.key, err = server.CanonicalRunKey(&k.req)
	return k, err
}

// fleetInputs are the keys of one run, all derived from the workload seed.
type fleetInputs struct {
	hot  []fleetKey
	cold fleetKeys
	// round is one round of hot key indexes in zipf order.
	round []int
}

func makeFleetInputs(seed uint64) (*fleetInputs, error) {
	in := &fleetInputs{cold: newFleetKeys(seed, "cold", 0x636f6c64)}
	hot := newFleetKeys(seed, "hot", 0x686f74)
	for i := 0; i < hotKeys; i++ {
		k, err := hot.key(i)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, k)
	}
	zipf := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x7a697066)), hotSkew, 1, hotKeys-1)
	for i := 0; i < hotRound; i++ {
		in.round = append(in.round, int(zipf.Uint64()))
	}
	return in, nil
}

// worker is one in-process miraged worker: a listener whose handler is the
// current server.Server. restart replaces the server and reopens its store
// on the same listener, as a process restart on the same address would.
type worker struct {
	dir   string
	peers []string
	ln    net.Listener
	hs    *http.Server
	url   string

	// mu orders restarts against requests: a restart waits for requests in
	// flight and holds new ones until the new server is installed, so the
	// coordinator's prober never sees the brief gap.
	mu  sync.RWMutex
	srv *server.Server
	st  *store.Store
}

func (w *worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	w.srv.ServeHTTP(rw, r)
}

// open builds the worker's server over its store as miraged's worker mode
// does: store on, peering on with -peers/-peer-auth, JSON access log.
func (w *worker) open(logger *slog.Logger) error {
	tel := telemetry.New()
	st, err := store.Open(w.dir, store.Options{MaxBytes: storeMaxBytes, Registry: tel.Reg()})
	if err != nil {
		return err
	}
	w.st = st
	w.srv = server.New(server.Config{
		MaxInFlight:     workerMaxInFlight,
		MaxQueue:        workerQueue,
		DefaultTimeout:  workerTimeout,
		MaxTimeout:      workerMaxTimeout,
		Telemetry:       tel,
		Logger:          logger,
		Store:           st,
		CacheMaxEntries: workerCacheEntries,
		CacheMaxBytes:   workerCacheBytes,
		PeerAuth:        peerSecret,
		PeerFetch:       fleet.NewPeerFetch(nil, w.peers, peerSecret),
	})
	return nil
}

// shutdown drains the server and closes the store.
func (w *worker) shutdown(ctx context.Context) error {
	err := w.srv.Shutdown(ctx)
	if cerr := w.st.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *worker) restart(ctx context.Context, logger *slog.Logger) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.shutdown(ctx); err != nil {
		return fmt.Errorf("restart %s: %w", w.url, err)
	}
	return w.open(logger)
}

// stack is a coordinator over two workers, all on ephemeral loopback ports
// in this process, with stores in fresh temporary directories.
type stack struct {
	logger  *slog.Logger
	root    string
	workers []*worker
	coord   *fleet.Coordinator
	coordHS *http.Server
	coordLn net.Listener
	url     string
	client  *http.Client
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// bootStack starts the fleet with the coordinator's -hedge-min set to
// hedgeMin. On error everything started so far is stopped.
func bootStack(hedgeMin time.Duration) (st *stack, err error) {
	s := &stack{logger: slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if s.root, err = tempDir("fleet-"); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		w := &worker{dir: fmt.Sprintf("%s/worker%d", s.root, i)}
		if w.ln, w.url, err = listen(); err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
		urls = append(urls, w.url)
	}
	for _, w := range s.workers {
		w.peers = urls
		if err = w.open(s.logger); err != nil {
			return nil, err
		}
		w.hs = &http.Server{Handler: w}
		go w.hs.Serve(w.ln)
	}
	if s.coord, err = fleet.New(fleet.Config{
		Workers:       urls,
		ProbeInterval: probeInterval,
		HedgeMin:      hedgeMin,
		HedgeMax:      hedgeMax,
		Telemetry:     telemetry.New(),
		Logger:        s.logger,
	}); err != nil {
		return nil, err
	}
	s.coord.ProbeOnce(context.Background())
	if n := len(s.coord.Ring().Healthy()); n != len(urls) {
		return nil, fmt.Errorf("coordinator sees %d of %d workers healthy", n, len(urls))
	}
	s.coord.Start()
	if s.coordLn, s.url, err = listen(); err != nil {
		return nil, err
	}
	s.coordHS = &http.Server{Handler: s.coord}
	go s.coordHS.Serve(s.coordLn)
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	return s, nil
}

// halt shuts every server down and closes the stores, leaving the store
// directories in place; safe on a partly started stack and when repeated.
func (s *stack) halt() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.coordHS != nil {
		_ = s.coordHS.Shutdown(ctx)
	} else if s.coordLn != nil {
		s.coordLn.Close()
	}
	s.coordHS, s.coordLn = nil, nil
	if s.coord != nil {
		s.coord.Close()
		s.coord = nil
	}
	for _, w := range s.workers {
		if w.hs != nil {
			_ = w.hs.Shutdown(ctx)
		} else if w.ln != nil {
			w.ln.Close()
		}
		w.hs, w.ln = nil, nil
		if w.srv != nil {
			_ = w.shutdown(ctx)
			w.srv = nil
		}
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// stop halts the stack and removes its stores.
func (s *stack) stop() {
	s.halt()
	if s.root != "" {
		_ = os.RemoveAll(s.root)
	}
}

// restartWorkers restarts both workers on their stores.
func (s *stack) restartWorkers() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	for _, w := range s.workers {
		if err := w.restart(ctx, s.logger); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// owner is the worker that owns a key on the coordinator's ring.
func (s *stack) owner(k fleetKey) (string, error) {
	o, ok := s.coord.Ring().Owner(k.key)
	if !ok {
		return "", fmt.Errorf("no owner for %q", k.key)
	}
	return o, nil
}

// reply is one buffered HTTP response.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (s *stack) do(method, url string, body []byte) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// expect checks one /v1/run reply: 200, the X-Cache outcome wanted (any when
// empty), and, when want is non-nil, bytes identical to it.
func expect(rep *reply, err error, k fleetKey, cache string, want []byte) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", k.key, err)
	case rep.status != http.StatusOK:
		return fmt.Errorf("%s: status %d: %s", k.key, rep.status, bytes.TrimSpace(rep.body))
	case cache != "" && rep.header.Get("X-Cache") != cache:
		return wrongf("%s: X-Cache %q, want %q", k.key, rep.header.Get("X-Cache"), cache)
	case want != nil && !bytes.Equal(rep.body, want):
		return wrongf("%s: body differs from the key's first response", k.key)
	}
	return nil
}

// parallel runs fn on each client lane and waits for all of them.
func parallel(fn func(lane int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// syncReport serializes operation accounting from client lanes.
type syncReport struct {
	mu sync.Mutex
	r  *report
}

func (s *syncReport) check(err error) {
	s.mu.Lock()
	s.r.check(err)
	s.mu.Unlock()
}

// warm simulates every hot key once on its owning worker, the lanes taking
// alternate keys, and returns each key's first response. Sending warm-up
// straight to the owners keeps the coordinator's latency history free of
// simulations, as a long-running fleet's is.
func (s *stack) warm(in *fleetInputs, sr *syncReport, tr *tracer) ([][]byte, error) {
	first := make([][]byte, len(in.hot))
	var firstErr atomic.Value
	parallel(func(lane int) {
		for i := lane; i < len(in.hot); i += clients {
			k := in.hot[i]
			o, err := s.owner(k)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			op := tr.newOp()
			sp := tr.begin("warm POST /v1/run (owner)", "server", 0, op, lane)
			rep, err := s.do("POST", o+"/v1/run", k.body)
			sp.end()
			err = expect(rep, err, k, "miss", nil)
			sr.check(err)
			if err == nil {
				first[i] = rep.body
			}
		}
	})
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	return first, nil
}

// hits sends rounds of hot requests to target(key) (the coordinator, or the
// key's owner) until n requests are done, or until the deadline when n is 0. Every reply must be a 200 hit byte-identical to the
// key's first response.
func (s *stack) hits(in *fleetInputs, first [][]byte, target func(fleetKey) (string, error), n int, deadline time.Time, lat *sample, sr *syncReport, tr *tracer, name string) time.Duration {
	start := time.Now()
	parallel(func(lane int) {
		for done := 0; ; {
			for j := lane; j < hotRound; j += clients {
				i := in.round[j]
				k := in.hot[i]
				url, err := target(k)
				if err != nil {
					sr.check(err)
					continue
				}
				op := tr.newOp()
				sp := tr.begin(name, "fleet", 0, op, lane)
				rep, err := s.do("POST", url+"/v1/run", k.body)
				d := sp.end()
				err = expect(rep, err, k, "hit", first[i])
				sr.check(err)
				if err == nil {
					lat.add(d)
				}
			}
			done += hotRound / clients
			if (n > 0 && done*clients >= n) || (n == 0 && !time.Now().Before(deadline)) {
				return
			}
		}
	})
	return time.Since(start)
}

func (s *stack) viaCoordinator(fleetKey) (string, error) { return s.url, nil }

// coldResult is one cold request's outcome.
type coldResult struct {
	k      fleetKey
	body   []byte
	hedged bool
}

// cold sends n never-seen keys through the coordinator, the lanes pulling the
// next key as each reply arrives. Replies must be 200; their content is
// checked afterwards against direct simulations (checkCold).
func (s *stack) cold(in *fleetInputs, base, n int, lat *sample, sr *syncReport, tr *tracer) ([]coldResult, time.Duration) {
	out := make([]coldResult, n)
	var next atomic.Int64
	start := time.Now()
	parallel(func(lane int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			k, err := in.cold.key(base + i)
			if err != nil {
				sr.check(err)
				continue
			}
			op := tr.newOp()
			sp := tr.begin("cold POST /v1/run", "fleet", 0, op, lane)
			rep, err := s.do("POST", s.url+"/v1/run", k.body)
			d := sp.end()
			if err = expect(rep, err, k, "", nil); err != nil {
				sr.check(err)
				continue
			}
			lat.add(d)
			out[i] = coldResult{k: k, body: rep.body, hedged: rep.header.Get("X-Mirage-Hedged") != ""}
		}
	})
	return out, time.Since(start)
}

// checkCold compares every cold reply with a direct simulation of the same
// configuration: the per-app IPCs must equal core.RunMix's, and the STP must
// equal the benchmark's own STP over them against the Homo-OoO reference
// (core.OoOReferenceCfg), the two halves of core.RunMixWithBaseline.
func checkCold(results []coldResult, sr *syncReport, tr *tracer) {
	for _, c := range results {
		if c.body == nil {
			continue // the request itself failed and is already counted
		}
		sr.check(checkRun(c, tr))
	}
}

// runReply is the part of a /v1/run response the checks and the digest read.
type runReply struct {
	STP  float64 `json:"stp"`
	Apps []struct {
		IPC float64 `json:"ipc"`
	} `json:"apps"`
}

// coldDigest hashes the cold replies' STP and per-app IPCs in key order; a
// failed request or an unreadable body contributes a NaN.
func coldDigest(results []coldResult) string {
	var vs []float64
	for _, c := range results {
		var got runReply
		if c.body == nil || json.Unmarshal(c.body, &got) != nil {
			vs = append(vs, math.NaN())
			continue
		}
		vs = append(vs, got.STP)
		for _, a := range got.Apps {
			vs = append(vs, a.IPC)
		}
	}
	return hashFloats(vs)
}

func checkRun(c coldResult, tr *tracer) error {
	var got runReply
	if err := json.Unmarshal(c.body, &got); err != nil {
		return wrongf("%s: response is not a run result: %v", c.k.key, err)
	}
	cfg := core.Config{
		Topology:       core.TopologyMirage,
		Policy:         core.PolicySCMPKI,
		Benchmarks:     c.k.req.Mix,
		TargetInsts:    c.k.req.TargetInsts,
		IntervalCycles: c.k.req.IntervalCycles,
		Seed:           c.k.req.Seed,
	}
	sp := tr.begin("core.RunMix + core.OoOReferenceCfg (check)", "core", 0, tr.newOp(), 0)
	var (
		mix            *core.MixResult
		ref            []float64
		mixErr, refErr error
		wg             sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ref, refErr = core.OoOReferenceCfg(context.Background(), cfg)
	}()
	mix, mixErr = core.RunMix(context.Background(), cfg)
	wg.Wait()
	sp.end()
	if err := errors.Join(mixErr, refErr); err != nil {
		return fmt.Errorf("%s: direct simulation: %w", c.k.key, err)
	}
	if len(got.Apps) != len(mix.PerAppIPC) {
		return wrongf("%s: %d apps, direct simulation %d", c.k.key, len(got.Apps), len(mix.PerAppIPC))
	}
	for i, a := range got.Apps {
		if a.IPC != mix.PerAppIPC[i] {
			return wrongf("%s: app %d IPC %v, direct simulation %v", c.k.key, i, a.IPC, mix.PerAppIPC[i])
		}
	}
	want, err := stp(mix.PerAppIPC, ref)
	if err != nil {
		return fmt.Errorf("%s: %w", c.k.key, err)
	}
	if got.STP != want {
		return wrongf("%s: STP %v, recomputed %v", c.k.key, got.STP, want)
	}
	return nil
}

// disk requests every hot key once, each lane taking alternate keys, from
// target; every reply must be a 200 disk hit byte-identical to the key's
// first response.
func (s *stack) disk(in *fleetInputs, first [][]byte, target func(fleetKey) (string, error), lat *sample, sr *syncReport, tr *tracer, name string) time.Duration {
	start := time.Now()
	parallel(func(lane int) {
		for i := lane; i < len(in.hot); i += clients {
			k := in.hot[i]
			url, err := target(k)
			if err != nil {
				sr.check(err)
				continue
			}
			op := tr.newOp()
			sp := tr.begin(name, "fleet", 0, op, lane)
			rep, err := s.do("POST", url+"/v1/run", k.body)
			d := sp.end()
			err = expect(rep, err, k, "disk", first[i])
			sr.check(err)
			if err == nil {
				lat.add(d)
			}
		}
	})
	return time.Since(start)
}

// bootAndWarm starts the fleet and warms it, returning the stack, the hot
// keys' first responses and the set-up time. The caller stops the stack.
func bootAndWarm(cfg runConfig, hedgeMin time.Duration, r *report, tr *tracer) (*stack, *fleetInputs, [][]byte, time.Duration, error) {
	in, err := makeFleetInputs(cfg.seed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	// The suite is already generated: server.CanonicalRunKey, which derived
	// the keys, resolves benchmark names through it. Its cost is setup_s on
	// sweep and measure, and program.suite_ms.
	start := time.Now()
	sp := tr.begin("boot fleet", "fleet", 0, tr.newOp(), 0)
	s, err := bootStack(hedgeMin)
	sp.end()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	first, err := s.warm(in, &syncReport{r: r}, tr)
	if err != nil {
		s.stop()
		return nil, nil, nil, 0, err
	}
	return s, in, first, time.Since(start), nil
}

var errNoSamples = errors.New("no successful request to time")

func runFleetHot(cfg runConfig, r *report) error {
	s, in, first, setup, err := bootAndWarm(cfg, hedgeMin, r, nil)
	if err != nil {
		return err
	}
	defer s.stop()
	r.set("setup_s", setup.Seconds(), "s")
	var lat sample
	wall := s.hits(in, first, s.viaCoordinator, 0, time.Now().Add(cfg.seconds), &lat, &syncReport{r: r}, nil, "hot POST /v1/run")
	sorted := lat.sorted()
	if len(sorted) == 0 {
		return errNoSamples
	}
	p50 := pct(sorted, 0.5)
	r.set("op_p50_ms", ms(p50), "ms")
	r.set("ops_per_s", float64(len(sorted))/wall.Seconds(), "1/s")
	r.note("hit_p50_us", us(p50), "us")
	if tailOK(len(sorted), 0.99) {
		r.note("hit_p99_us", us(pct(sorted, 0.99)), "us")
	}
	r.note("hits_per_s", float64(len(sorted))/wall.Seconds(), "1/s")
	r.note("hit_samples", float64(len(sorted)), "count")
	return nil
}

// The cold workload's counts: at least minColdKeys keys (a p90 needs ten
// samples beyond it), more on longer runs. Cold requests are a small share
// of the coordinator's history of hits, as in a fleet serving mostly
// repeats, so the hedge budget sits at -hedge-min throughout.
const (
	minColdKeys       = 100
	coldKeysPerSecond = 7
	coldHistoryHits   = 150 // per cold key
)

func runFleetCold(cfg runConfig, r *report) error {
	s, in, first, setup, err := bootAndWarm(cfg, coldHedgeMin, r, nil)
	if err != nil {
		return err
	}
	defer s.stop()
	n := max(minColdKeys, coldKeysPerSecond*int(cfg.seconds/time.Second))
	sr := &syncReport{r: r}
	histStart := time.Now()
	// The history is set-up, not counted operations: at coldHedgeMin a
	// history hit slower than the budget is now and then hedged and answered
	// with X-Cache: miss (see CHANGES.md), on some seeds and not others, so
	// its failures are reported on stderr only.
	hist := newReport()
	var histLat sample
	s.hits(in, first, s.viaCoordinator, coldHistoryHits*n, time.Time{}, &histLat, &syncReport{r: hist}, nil, "history POST /v1/run")
	if hist.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: history: %d of %d hits failed (set-up, not counted)\n", hist.failed, hist.attempted)
	}
	r.set("setup_s", (setup + time.Since(histStart)).Seconds(), "s")

	before, err := s.counters()
	if err != nil {
		return err
	}
	var lat sample
	results, wall := s.cold(in, 0, n, &lat, sr, nil)
	after, err := s.counters()
	if err != nil {
		return err
	}
	checkCold(results, sr, nil)
	r.digests = append(r.digests, "cold "+coldDigest(results))
	sorted := lat.sorted()
	if len(sorted) == 0 {
		return errNoSamples
	}
	p50 := pct(sorted, 0.5)
	r.set("op_p50_ms", ms(p50), "ms")
	r.set("ops_per_s", float64(len(sorted))/wall.Seconds(), "1/s")
	r.note("miss_p50_ms", ms(p50), "ms")
	if tailOK(len(sorted), 0.9) {
		r.note("miss_p90_ms", ms(pct(sorted, 0.9)), "ms")
	}
	r.note("misses_per_s", float64(len(sorted))/wall.Seconds(), "1/s")
	r.note("cold_keys", float64(n), "count")
	d := after.minus(before)
	r.note("fleet.sims_per_cold_key", float64(d.workers["server.jobs.executed"])/float64(n), "count")
	r.note("fleet.hedges", float64(d.coord["fleet.hedges"]), "count")
	return nil
}

func runFleetDisk(cfg runConfig, r *report) error {
	s, in, first, setup, err := bootAndWarm(cfg, hedgeMin, r, nil)
	if err != nil {
		return err
	}
	defer s.stop()
	sr := &syncReport{r: r}
	var lat sample
	var restarts []time.Duration
	var wall time.Duration
	deadline := time.Now().Add(cfg.seconds)
	for len(restarts) < 3 || time.Now().Before(deadline) {
		d, err := s.restartWorkers()
		if err != nil {
			return err
		}
		restarts = append(restarts, d)
		wall += s.disk(in, first, s.viaCoordinator, &lat, sr, nil, "disk POST /v1/run")
	}
	r.set("setup_s", (setup + median(restarts)).Seconds(), "s")
	sorted := lat.sorted()
	if len(sorted) == 0 {
		return errNoSamples
	}
	p50 := pct(sorted, 0.5)
	r.set("op_p50_ms", ms(p50), "ms")
	r.set("ops_per_s", float64(len(sorted))/wall.Seconds(), "1/s")
	r.note("disk_p50_us", us(p50), "us")
	r.note("restart_ms", ms(median(restarts)), "ms")
	r.note("disk_rounds", float64(len(restarts)), "count")
	return nil
}

// fleetCounters is a /v1/metrics counter snapshot: the coordinator's, and
// the workers' summed.
type fleetCounters struct {
	coord, workers map[string]int64
	// queueWait sums the workers' admission queue-wait histograms.
	queueWaitSum, queueWaitN int64
	raw                      map[string]json.RawMessage
}

func (s *stack) metrics(url string) (telemetry.Metrics, []byte, error) {
	var m telemetry.Metrics
	rep, err := s.do("GET", url+"/v1/metrics", nil)
	if err != nil {
		return m, nil, err
	}
	if rep.status != http.StatusOK {
		return m, nil, fmt.Errorf("GET %s/v1/metrics: status %d", url, rep.status)
	}
	return m, rep.body, json.Unmarshal(rep.body, &m)
}

// counters snapshots /v1/metrics from the coordinator and each worker.
func (s *stack) counters() (fleetCounters, error) {
	fc := fleetCounters{workers: map[string]int64{}, raw: map[string]json.RawMessage{}}
	m, raw, err := s.metrics(s.url)
	if err != nil {
		return fc, err
	}
	fc.coord = m.Counters
	fc.raw["coordinator"] = raw
	for i, w := range s.workers {
		m, raw, err := s.metrics(w.url)
		if err != nil {
			return fc, err
		}
		for k, v := range m.Counters {
			fc.workers[k] += v
		}
		h := m.Histograms["server.admit.queue_wait_us"]
		fc.queueWaitSum += h.Sum
		fc.queueWaitN += h.Count
		fc.raw[fmt.Sprintf("worker%d", i)] = raw
	}
	return fc, nil
}

func (a fleetCounters) minus(b fleetCounters) fleetCounters {
	d := fleetCounters{coord: map[string]int64{}, workers: map[string]int64{},
		queueWaitSum: a.queueWaitSum - b.queueWaitSum, queueWaitN: a.queueWaitN - b.queueWaitN}
	for k, v := range a.coord {
		d.coord[k] = v - b.coord[k]
	}
	for k, v := range a.workers {
		d.workers[k] = v - b.workers[k]
	}
	return d
}
