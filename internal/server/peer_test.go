// Tests for the fleet-facing surface of the server: the exported canonical
// key helpers (must match what the handlers actually cache under), the
// /internal/peer/cache endpoint, and the PeerFetch hook consulted when a
// request arrives with an X-Mirage-Owner routing hint.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// TestCanonicalRunKeyMatchesHandler pins the exported key derivation to the
// key the /v1/run handler embeds in its response: if they ever drift, the
// coordinator's shard routing and cache peering silently stop lining up with
// what workers cache.
func TestCanonicalRunKeyMatchesHandler(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			return fakeMixResult(cfg), nil
		}}
	})
	body := `{"mix": ["hmmer", "mcf"], "topology": "traditional", "num_ooo": 2, "seed": "fleet"}`
	rec := postJSON(t, srv, "/v1/run", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var req RunRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	key, err := CanonicalRunKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	if key != resp.Key {
		t.Fatalf("CanonicalRunKey = %q, handler cached under %q", key, resp.Key)
	}
	// Invalid requests surface the same client-shaped validation error the
	// handler would return.
	if _, err := CanonicalRunKey(&RunRequest{}); err == nil {
		t.Fatal("empty mix: want validation error")
	}
	if _, err := CanonicalRunKey(&RunRequest{Mix: []string{"no-such-bench"}}); err == nil {
		t.Fatal("unknown benchmark: want validation error")
	}
}

// TestCanonicalSweepAndFigureKeys pins the sweep/figure helpers to the
// internal derivations the handlers use.
func TestCanonicalSweepAndFigureKeys(t *testing.T) {
	srv := newTestServer(t, nil)
	scales := map[string]experiments.Scale{"quick": experiments.QuickScale, "tiny": tinyScale}

	j, sc, aerr := srv.validateSweep(&SweepRequest{Scale: "tiny"})
	if aerr != nil {
		t.Fatal(aerr)
	}
	got, err := CanonicalSweepKey(&SweepRequest{Scale: "tiny"}, scales)
	if err != nil {
		t.Fatal(err)
	}
	if got != j.key {
		t.Fatalf("CanonicalSweepKey = %q, handler uses %q", got, j.key)
	}
	if _, err := CanonicalSweepKey(&SweepRequest{Scale: "bogus"}, scales); err == nil {
		t.Fatal("unknown scale: want error")
	}
	if _, err := CanonicalSweepKey(&SweepRequest{TimeoutMS: -1}, scales); err == nil {
		t.Fatal("negative timeout: want error")
	}

	exp, ok := experiments.ByName("figure-7")
	if !ok {
		t.Fatal("figure-7 not registered")
	}
	want := figureKey(exp.Slug, sc)
	got, err = CanonicalFigureKey("figure-7", "tiny", scales)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("CanonicalFigureKey = %q, handler uses %q", got, want)
	}
	if _, err := CanonicalFigureKey("no-such-figure", "tiny", scales); err == nil {
		t.Fatal("unknown figure: want error")
	}

	// nil scales means the default registry New installs.
	defKey, err := CanonicalSweepKey(&SweepRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(defKey, "scale=quick") {
		t.Fatalf("default scale key = %q, want quick", defKey)
	}
}

// TestPeerCacheEndpoint: the peering endpoint serves settled response bytes
// verbatim from memory, 404s keys it never computed, and never triggers a
// simulation of its own.
func TestPeerCacheEndpoint(t *testing.T) {
	var runs atomic.Int64
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			runs.Add(1)
			return fakeMixResult(cfg), nil
		}}
	})
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "peered"}`)
	if rec.Code != 200 {
		t.Fatalf("seed run: status %d", rec.Code)
	}
	want := rec.Body.Bytes()
	key, err := CanonicalRunKey(&RunRequest{Mix: []string{"hmmer"}, Seed: "peered"})
	if err != nil {
		t.Fatal(err)
	}

	peek := get(t, srv, "/internal/peer/cache?key="+url.QueryEscape(key))
	if peek.Code != 200 {
		t.Fatalf("peer cache hit: status %d: %s", peek.Code, peek.Body.Bytes())
	}
	if !strings.EqualFold(peek.Header().Get("X-Cache"), "memory") {
		t.Fatalf("X-Cache = %q, want memory", peek.Header().Get("X-Cache"))
	}
	if string(peek.Body.Bytes()) != string(want) {
		t.Fatalf("peer bytes differ from the original response:\n%s\nvs\n%s", peek.Body.Bytes(), want)
	}

	miss := get(t, srv, "/internal/peer/cache?key="+url.QueryEscape("run|no-such-key"))
	if miss.Code != http.StatusNotFound {
		t.Fatalf("peer cache miss: status %d, want 404", miss.Code)
	}
	if bad := get(t, srv, "/internal/peer/cache"); bad.Code != http.StatusBadRequest {
		t.Fatalf("missing key: status %d, want 400", bad.Code)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("peer endpoint triggered %d simulations, want the original 1", got)
	}
}

// TestPeerCacheAuth: with PeerAuth configured, the peering endpoint serves
// only requests carrying the shared secret — cached result bytes must not
// be readable (or key-probe-able) by arbitrary clients that reach the
// worker's listener.
func TestPeerCacheAuth(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			return fakeMixResult(cfg), nil
		}}
		c.PeerAuth = "fleet-secret"
	})
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "authed"}`)
	if rec.Code != 200 {
		t.Fatalf("seed run: status %d", rec.Code)
	}
	key, err := CanonicalRunKey(&RunRequest{Mix: []string{"hmmer"}, Seed: "authed"})
	if err != nil {
		t.Fatal(err)
	}
	path := "/internal/peer/cache?key=" + url.QueryEscape(key)

	peek := func(secret string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil)
		if secret != "" {
			req.Header.Set(PeerAuthHeader, secret)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	if got := peek("").Code; got != http.StatusForbidden {
		t.Fatalf("no secret: status %d, want 403", got)
	}
	if got := peek("wrong").Code; got != http.StatusForbidden {
		t.Fatalf("wrong secret: status %d, want 403", got)
	}
	if got := srv.reg.Counter("server.peer.denied").Value(); got != 2 {
		t.Fatalf("server.peer.denied = %d, want 2", got)
	}
	if rec := peek("fleet-secret"); rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("right secret: status %d body %q, want the cached bytes", rec.Code, rec.Body.Bytes())
	}
}

// TestPeerFetchConsulted: a request carrying an X-Mirage-Owner hint asks the
// configured PeerFetch before simulating; a peer hit serves (and caches) the
// peer's bytes with zero backend work, a peer miss falls through to a normal
// simulation, and requests without the hint never consult the peer.
func TestPeerFetchConsulted(t *testing.T) {
	peerBody := []byte(`{"peer": "bytes"}` + "\n")
	var runs, fetches atomic.Int64
	var hit atomic.Bool
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			runs.Add(1)
			return fakeMixResult(cfg), nil
		}}
		c.PeerFetch = func(ctx context.Context, owner, key string) ([]byte, string, bool) {
			fetches.Add(1)
			if owner != "http://owner:8080" {
				t.Errorf("PeerFetch owner = %q", owner)
			}
			if !strings.HasPrefix(key, "run|") {
				t.Errorf("PeerFetch key = %q", key)
			}
			if hit.Load() {
				return append([]byte(nil), peerBody...), PeerTierMemory, true
			}
			return nil, "", false
		}
	})
	withOwner := func(seed string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/run",
			strings.NewReader(fmt.Sprintf(`{"mix": ["hmmer"], "seed": %q}`, seed)))
		req.Header.Set("X-Mirage-Owner", "http://owner:8080")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	// Peer miss: falls through to the local simulation.
	if rec := withOwner("miss-path"); rec.Code != 200 {
		t.Fatalf("peer-miss run: status %d", rec.Code)
	}
	if runs.Load() != 1 || fetches.Load() != 1 {
		t.Fatalf("peer miss: runs=%d fetches=%d, want 1/1", runs.Load(), fetches.Load())
	}

	// Peer hit: the owner's bytes come back verbatim, no local simulation.
	hit.Store(true)
	rec := withOwner("hit-path")
	if rec.Code != 200 {
		t.Fatalf("peer-hit run: status %d", rec.Code)
	}
	if rec.Body.String() != string(peerBody) {
		t.Fatalf("peer-hit body = %s, want the peer's bytes", rec.Body.Bytes())
	}
	if runs.Load() != 1 {
		t.Fatalf("peer hit still simulated locally (runs=%d)", runs.Load())
	}
	if got := srv.reg.Counter("server.peer.hits").Value(); got != 1 {
		t.Fatalf("server.peer.hits = %d, want 1", got)
	}

	// The peer-fetched bytes were cached: a repeat without the hint is a
	// local cache hit and consults nobody.
	before := fetches.Load()
	rec = postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "hit-path"}`)
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want 200/hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	if rec.Body.String() != string(peerBody) {
		t.Fatalf("repeat served %s, want cached peer bytes", rec.Body.Bytes())
	}
	if fetches.Load() != before {
		t.Fatal("cache hit consulted the peer again")
	}

	// No owner hint: the peer is never consulted even with PeerFetch set.
	before = fetches.Load()
	if rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "local-only"}`); rec.Code != 200 {
		t.Fatalf("local run: status %d", rec.Code)
	}
	if fetches.Load() != before {
		t.Fatal("request without X-Mirage-Owner consulted the peer")
	}
}

// TestPeerServedLabelsOwnerTier: a request whose bytes a fleet peer served
// is labelled by where the owner found them — X-Cache "hit" from the
// owner's memory, "disk" from its store, "miss" only when the fetch waited
// on the owner's running flight — and only that wait is timed as a
// peer_wait span and in server.peer.waits / server.peer.wait_us.
func TestPeerServedLabelsOwnerTier(t *testing.T) {
	for _, tc := range []struct {
		tier, wantCache string
		wantWaits       int64
	}{
		{PeerTierMemory, "hit", 0},
		{PeerTierDisk, "disk", 0},
		{PeerTierFlight, "miss", 1},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			var runs atomic.Int64
			srv := newTestServer(t, func(c *Config) {
				c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
					runs.Add(1)
					return fakeMixResult(cfg), nil
				}}
				c.PeerFetch = func(ctx context.Context, owner, key string) ([]byte, string, bool) {
					if tc.tier == PeerTierFlight {
						time.Sleep(5 * time.Millisecond)
					}
					return []byte(`{"peer": true}` + "\n"), tc.tier, true
				}
			})
			req := httptest.NewRequest("POST", "/v1/run", strings.NewReader(`{"mix": ["hmmer"], "seed": "tier"}`))
			req.Header.Set("X-Mirage-Owner", "http://owner:8080")
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != 200 || rec.Body.String() != `{"peer": true}`+"\n" {
				t.Fatalf("status %d body %s, want the peer's bytes", rec.Code, rec.Body.Bytes())
			}
			if got := rec.Header().Get("X-Cache"); got != tc.wantCache {
				t.Fatalf("X-Cache = %q, want %q", got, tc.wantCache)
			}
			if runs.Load() != 0 {
				t.Fatal("peer-served request simulated locally")
			}
			if got := srv.reg.Counter("server.peer.waits").Value(); got != tc.wantWaits {
				t.Fatalf("server.peer.waits = %d, want %d", got, tc.wantWaits)
			}
			waitUS := srv.reg.Counter("server.peer.wait_us").Value()
			if (tc.wantWaits > 0) != (waitUS >= 5000) {
				t.Fatalf("server.peer.wait_us = %d with %d waits", waitUS, tc.wantWaits)
			}
			trace := get(t, srv, "/debug/requests/trace").Body.String()
			if got := strings.Contains(trace, `"name":"peer_wait"`); got != (tc.wantWaits > 0) {
				t.Fatalf("peer_wait span present = %v, want %v", got, tc.wantWaits > 0)
			}
		})
	}
}

// gatedRun is a fake backend Run that signals entered once admitted and
// then blocks until release yields its outcome (nil: a result).
func gatedRun(entered chan<- string, release <-chan error) func(context.Context, core.Config) (*core.MixResult, error) {
	return func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
		entered <- cfg.Seed
		select {
		case err := <-release:
			if err != nil {
				return nil, err
			}
			return fakeMixResult(cfg), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// peerGet issues a peering request over real HTTP; it returns once the
// response headers arrive.
func peerGet(t *testing.T, base, key string) *http.Response {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/internal/peer/cache?key="+url.QueryEscape(key), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("peer request: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func runKey(t *testing.T, seed string) string {
	t.Helper()
	key, err := CanonicalRunKey(&RunRequest{Mix: []string{"hmmer"}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestPeerCacheJoinsRunningFlight: a peer asking for a key whose flight is
// running gets its headers at once (X-Cache: flight) and the flight's bytes
// when it settles, with the success trailer — and the owner simulates the
// key once.
func TestPeerCacheJoinsRunningFlight(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan error)
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: gatedRun(entered, release)}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "joined"}`) }()
	<-entered

	// The headers arrive while the simulation is still blocked.
	resp := peerGet(t, ts.URL, runKey(t, "joined"))
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != PeerTierFlight {
		t.Fatalf("status %d X-Cache %q, want 200/flight", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	release <- nil
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rec := <-leader
	if rec.Code != 200 || string(b) != rec.Body.String() {
		t.Fatalf("peer got %q, the leader %d %q", b, rec.Code, rec.Body.Bytes())
	}
	if got := resp.Trailer.Get(PeerFlightTrailer); got != PeerFlightOK {
		t.Fatalf("trailer %q, want %q", got, PeerFlightOK)
	}
	if got := srv.reg.Counter("server.jobs.executed").Value(); got != 1 {
		t.Fatalf("server.jobs.executed = %d, want 1", got)
	}
	if got := srv.reg.Counter("server.peer.served").Value(); got != 1 {
		t.Fatalf("server.peer.served = %d, want 1", got)
	}
}

// TestPeerCacheQueuedFlightAnswersAtOnce: a flight still parked in the
// owner's admission queue is not waited on — the peer gets a 404 at once,
// so a saturated owner is still hedged around — and the peer request
// starts no simulation.
func TestPeerCacheQueuedFlightAnswersAtOnce(t *testing.T) {
	entered := make(chan string, 2)
	release := make(chan error, 2)
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: gatedRun(entered, release)}
		c.MaxInFlight = 1
	})
	done := make(chan *httptest.ResponseRecorder, 2)
	go func() { done <- postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "running"}`) }()
	<-entered
	go func() { done <- postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "queued"}`) }()
	waitFor(t, "the second flight to queue", func() bool { return len(srv.queued) == 1 })

	if rec := get(t, srv, "/internal/peer/cache?key="+url.QueryEscape(runKey(t, "queued"))); rec.Code != http.StatusNotFound {
		t.Fatalf("queued flight: status %d, want 404", rec.Code)
	}
	if got := srv.reg.Counter("server.jobs.executed").Value(); got != 1 {
		t.Fatalf("server.jobs.executed = %d after the peer request, want 1", got)
	}
	release <- nil
	release <- nil
	for i := 0; i < 2; i++ {
		if rec := <-done; rec.Code != 200 {
			t.Fatalf("run: status %d", rec.Code)
		}
	}
	if got := srv.reg.Counter("server.jobs.executed").Value(); got != 2 {
		t.Fatalf("server.jobs.executed = %d, want 2 (one per key)", got)
	}
}

// TestPeerCacheJoinedFlightFails: when the joined flight fails or ends
// cancelled, the peer gets an empty body and a trailer other than the
// success value, so it falls through to its own simulation.
func TestPeerCacheJoinedFlightFails(t *testing.T) {
	for name, ferr := range map[string]error{
		"failed":    fmt.Errorf("simulation blew up"),
		"cancelled": &runner.Canceled{Completed: 1, Total: 2, Cause: context.Canceled},
	} {
		t.Run(name, func(t *testing.T) {
			entered := make(chan string, 1)
			release := make(chan error)
			srv := newTestServer(t, func(c *Config) {
				c.Backend = fakeBackend{run: gatedRun(entered, release)}
			})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			leader := make(chan *httptest.ResponseRecorder, 1)
			go func() { leader <- postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "doomed"}`) }()
			<-entered
			resp := peerGet(t, ts.URL, runKey(t, "doomed"))
			if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != PeerTierFlight {
				t.Fatalf("status %d X-Cache %q, want 200/flight", resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			release <- ferr
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != 0 || resp.Trailer.Get(PeerFlightTrailer) == PeerFlightOK {
				t.Fatalf("failed flight served %q with trailer %q", b, resp.Trailer.Get(PeerFlightTrailer))
			}
			if rec := <-leader; rec.Code == 200 {
				t.Fatal("leader succeeded on a failed flight")
			}
			if got := srv.reg.Counter("server.peer.flight_failures").Value(); got != 1 {
				t.Fatalf("server.peer.flight_failures = %d, want 1", got)
			}
			if got := srv.reg.Counter("server.jobs.executed").Value(); got != 1 {
				t.Fatalf("server.jobs.executed = %d, want 1", got)
			}
		})
	}
}

// TestSimulationTelemetryStaysBounded: simulations feed the server's
// registry only, so /v1/metrics carries no interval samples and stops
// growing once its metric names exist, and the process-lifetime trace sink
// collects no cluster events.
func TestSimulationTelemetryStaysBounded(t *testing.T) {
	srv := newTestServer(t, nil)
	run := func(from, to int) {
		for i := from; i < to; i++ {
			body := fmt.Sprintf(`{"mix": ["hmmer"], "target_insts": 5000, "interval_cycles": 2500, "seed": "bounded-%d"}`, i)
			if rec := postJSON(t, srv, "/v1/run", body); rec.Code != 200 {
				t.Fatalf("run %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
			}
		}
	}
	metrics := func() (int, telemetry.Metrics) {
		rec := get(t, srv, "/v1/metrics")
		var m telemetry.Metrics
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return rec.Body.Len(), m
	}
	run(0, 2)
	metrics() // registers the metrics route's own latency histogram
	size1, m1 := metrics()
	run(2, 6)
	size2, m2 := metrics()
	if len(m1.Intervals) != 0 || len(m2.Intervals) != 0 {
		t.Fatalf("interval samples %d then %d, want none", len(m1.Intervals), len(m2.Intervals))
	}
	if n := srv.tel.Sink().Len(); n != 0 {
		t.Fatalf("the server's trace sink holds %d simulation events", n)
	}
	if len(m2.Counters) != len(m1.Counters) || len(m2.Histograms) != len(m1.Histograms) {
		t.Fatalf("metric names grew: %d/%d counters, %d/%d histograms",
			len(m1.Counters), len(m2.Counters), len(m1.Histograms), len(m2.Histograms))
	}
	// Only counter digits and the odd new histogram bucket may grow.
	if size2-size1 > 1024 {
		t.Fatalf("/v1/metrics grew from %d to %d bytes over 4 simulations", size1, size2)
	}
	if m2.Counters["server.jobs.executed"] != 6 {
		t.Fatalf("server.jobs.executed = %d, want 6", m2.Counters["server.jobs.executed"])
	}
}
