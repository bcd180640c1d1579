// NewPeerFetch unit tests: the owner URL arrives in a client-forgeable
// header, so fetches must stay inside the configured fleet allowlist and
// carry the shared peering secret.

package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/server"
)

func TestPeerFetchAllowlist(t *testing.T) {
	var served atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprint(w, `{"cached": true}`)
	}))
	defer owner.Close()

	// Owner on the allowlist (with a trailing-slash spelling to normalize).
	fetch := NewPeerFetch(nil, []string{owner.URL + "/"}, "")
	b, _, ok := fetch(context.Background(), owner.URL, "run|k")
	if !ok || string(b) != `{"cached": true}` {
		t.Fatalf("allowlisted owner: ok=%v body=%s", ok, b)
	}

	// An owner not on the allowlist is refused without any request — this
	// is the SSRF/poisoning guard, so no bytes may flow at all.
	before := served.Load()
	if _, _, ok := fetch(context.Background(), "http://evil.example", "run|k"); ok {
		t.Fatal("non-allowlisted owner returned bytes")
	}
	if served.Load() != before {
		t.Fatal("non-allowlisted owner was contacted")
	}

	// An empty allowlist fails closed: even the real owner is refused.
	deny := NewPeerFetch(nil, nil, "")
	if _, _, ok := deny(context.Background(), owner.URL, "run|k"); ok {
		t.Fatal("empty allowlist returned bytes")
	}
	if served.Load() != before {
		t.Fatal("empty allowlist still contacted the owner")
	}
}

func TestPeerFetchSendsAuth(t *testing.T) {
	const secret = "fleet-secret"
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(server.PeerAuthHeader) != secret {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer owner.Close()

	withAuth := NewPeerFetch(nil, []string{owner.URL}, secret)
	if b, _, ok := withAuth(context.Background(), owner.URL, "run|k"); !ok || string(b) != "ok" {
		t.Fatalf("authed fetch: ok=%v body=%s", ok, b)
	}
	// Missing secret: the owner's 403 is a miss, never a cacheable result.
	without := NewPeerFetch(nil, []string{owner.URL}, "")
	if _, _, ok := without(context.Background(), owner.URL, "run|k"); ok {
		t.Fatal("unauthenticated fetch against an authed owner reported a hit")
	}
}

// flightOwner is a fake owner that answers like a joined flight: headers
// at once, then the body and trailer once settle yields them (an empty
// trailer value aborts the connection instead, as a dying owner would).
func flightOwner(t *testing.T, settle <-chan string) *httptest.Server {
	t.Helper()
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", server.PeerTierFlight)
		w.Header().Set("Trailer", server.PeerFlightTrailer)
		w.WriteHeader(http.StatusOK)
		_ = http.NewResponseController(w).Flush()
		trailer := <-settle
		if trailer == "" {
			panic(http.ErrAbortHandler)
		}
		if trailer == server.PeerFlightOK {
			fmt.Fprint(w, `{"computed": true}`)
		}
		w.Header().Set(server.PeerFlightTrailer, trailer)
	}))
	t.Cleanup(owner.Close)
	return owner
}

// TestPeerFetchWaitsOnFlightPastHeaderBound: the fixed bound covers the
// owner's headers only; a joined flight's body may take longer and is
// still delivered, labelled with the owner's tier.
func TestPeerFetchWaitsOnFlightPastHeaderBound(t *testing.T) {
	settle := make(chan string, 1)
	owner := flightOwner(t, settle)
	go func() {
		time.Sleep(200 * time.Millisecond)
		settle <- server.PeerFlightOK
	}()
	fetch := newPeerFetch(nil, []string{owner.URL}, "", 50*time.Millisecond)
	b, tier, ok := fetch(context.Background(), owner.URL, "run|k")
	if !ok || tier != server.PeerTierFlight || string(b) != `{"computed": true}` {
		t.Fatalf("ok=%v tier=%q body=%s, want the flight's bytes", ok, tier, b)
	}
}

// TestPeerFetchFallsThrough: every way the owner cannot deliver is a miss
// that returns at once — slow headers, an unreachable owner, a joined
// flight that fails, and an owner that dies mid-wait.
func TestPeerFetchFallsThrough(t *testing.T) {
	check := func(name string, owner string, wantTier string) {
		t.Helper()
		fetch := newPeerFetch(nil, []string{owner}, "", 100*time.Millisecond)
		start := time.Now()
		b, tier, ok := fetch(context.Background(), owner, "run|k")
		if ok || b != nil || tier != wantTier {
			t.Fatalf("%s: ok=%v tier=%q body=%q, want a %q miss", name, ok, tier, b, wantTier)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: the miss took %v", name, d)
		}
	}

	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(stall)
	check("slow headers", slow.URL, "")

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	check("unreachable", deadURL, "")

	failed := make(chan string, 1)
	failed <- "failed"
	check("failed flight", flightOwner(t, failed).URL, server.PeerTierFlight)

	dies := make(chan string, 1)
	dies <- ""
	check("owner dies mid-wait", flightOwner(t, dies).URL, server.PeerTierFlight)
}

// runBackend is a server.Backend over a Run func; Reports is never used.
type runBackend func(ctx context.Context, cfg core.Config) (*core.MixResult, error)

func (f runBackend) Run(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
	return f(ctx, cfg)
}

func (f runBackend) Reports(context.Context, experiments.Scale, []string) ([]*experiments.Report, error) {
	return nil, fmt.Errorf("no reports")
}

// mixResult is a deterministic result naming which worker computed it.
func mixResult(cfg core.Config, by string) *core.MixResult {
	res := &core.MixResult{Config: cfg, STP: 1, Cluster: &cluster.Result{}}
	for _, name := range cfg.Benchmarks {
		res.Cluster.Apps = append(res.Cluster.Apps, cluster.AppResult{Name: name + "@" + by, IPC: 1})
	}
	return res
}

// joinSignal wraps a worker handler and closes joined when a peering reply
// announces a joined flight (its headers are being written).
type joinSignal struct {
	h      http.Handler
	once   sync.Once
	joined chan struct{}
}

func (s *joinSignal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.ServeHTTP(&joinWriter{ResponseWriter: w, s: s}, r)
}

type joinWriter struct {
	http.ResponseWriter
	s *joinSignal
}

func (w *joinWriter) WriteHeader(code int) {
	w.ResponseWriter.WriteHeader(code)
	if w.Header().Get("X-Cache") == server.PeerTierFlight {
		w.s.once.Do(func() { close(w.s.joined) })
	}
}

func (w *joinWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// peerPair is an owner and a non-owner worker peering with each other over
// real HTTP. The owner's simulations block until release yields their
// outcome; the non-owner's succeed at once.
type peerPair struct {
	owner, other *server.Server
	ownerTS      *httptest.Server
	otherURL     string
	joined       chan struct{}
	// entered and release carry one value per owner simulation; their
	// buffers exceed the two a test starts, so no send ever blocks.
	entered              chan string
	release              chan error
	ownerRuns, otherRuns atomic.Int64
}

func newPeerPair(t *testing.T, ownerInFlight int) *peerPair {
	t.Helper()
	p := &peerPair{joined: make(chan struct{}), entered: make(chan string, 4), release: make(chan error, 4)}
	sig := &joinSignal{joined: p.joined}
	p.ownerTS = httptest.NewServer(sig)
	t.Cleanup(p.ownerTS.Close)
	otherMux := &lateHandler{}
	otherTS := httptest.NewServer(otherMux)
	t.Cleanup(otherTS.Close)
	p.otherURL = otherTS.URL
	peers := []string{p.ownerTS.URL, otherTS.URL}
	p.owner = server.New(server.Config{
		MaxInFlight: ownerInFlight,
		Backend: runBackend(func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			p.ownerRuns.Add(1)
			p.entered <- cfg.Seed
			select {
			case err := <-p.release:
				if err != nil {
					return nil, err
				}
				return mixResult(cfg, "owner"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
		PeerFetch: NewPeerFetch(nil, peers, "pair-secret"),
		PeerAuth:  "pair-secret",
	})
	sig.h = p.owner
	p.other = server.New(server.Config{
		Backend: runBackend(func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			p.otherRuns.Add(1)
			return mixResult(cfg, "other"), nil
		}),
		PeerFetch: NewPeerFetch(nil, peers, "pair-secret"),
		PeerAuth:  "pair-secret",
	})
	otherMux.set(p.other)
	// Any release the test left unsent unblocks the owner before its
	// listener closes.
	t.Cleanup(func() {
		for i := 0; i < cap(p.release); i++ {
			select {
			case p.release <- fmt.Errorf("test over"):
			default:
			}
		}
	})
	return p
}

// lateHandler serves through a handler installed after its listener
// starts, so each worker can be built knowing every peer URL.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (m *lateHandler) set(h http.Handler) {
	m.mu.Lock()
	m.h = h
	m.mu.Unlock()
}

func (m *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	h := m.h
	m.mu.Unlock()
	h.ServeHTTP(w, r)
}

func pairBody(seed string) string { return fmt.Sprintf(`{"mix": ["hmmer"], "seed": %q}`, seed) }

// post sends a /v1/run to base, naming owner in X-Mirage-Owner when set
// (as the coordinator does on a hedge or failover).
func (p *peerPair) post(base, owner, seed string) (*http.Response, string, error) {
	req, err := http.NewRequest("POST", base+"/v1/run", strings.NewReader(pairBody(seed)))
	if err != nil {
		return nil, "", err
	}
	if owner != "" {
		req.Header.Set("X-Mirage-Owner", owner)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, string(b), err
}

// background sends a /v1/run whose reply the test does not read (the
// owner's own request, which some cases cut off).
func (p *peerPair) background(base, seed string) {
	go func() { _, _, _ = p.post(base, "", seed) }()
}

func counter(s *server.Server, name string) int64 { return s.Telemetry().Reg().Counter(name).Value() }

// TestPeerWaitJoinsOwnerFlight: a hedged request reaching a non-owner while
// the owner simulates waits on the owner's flight and serves its bytes —
// the key is simulated once, the wait is counted, and the reply is a miss.
func TestPeerWaitJoinsOwnerFlight(t *testing.T) {
	p := newPeerPair(t, 0)
	ownerDone := make(chan string, 1)
	go func() {
		_, b, err := p.post(p.ownerTS.URL, "", "join")
		if err != nil {
			t.Error(err)
		}
		ownerDone <- b
	}()
	<-p.entered
	type reply struct {
		resp *http.Response
		body string
	}
	hedge := make(chan reply, 1)
	go func() {
		resp, b, err := p.post(p.otherURL, p.ownerTS.URL, "join")
		if err != nil {
			t.Error(err)
		}
		hedge <- reply{resp, b}
	}()
	<-p.joined
	p.release <- nil
	want := <-ownerDone
	got := <-hedge
	if got.resp == nil || got.resp.StatusCode != 200 || got.body != want {
		t.Fatalf("hedged reply %q, want the owner's %q", got.body, want)
	}
	if c := got.resp.Header.Get("X-Cache"); c != "miss" {
		t.Fatalf("X-Cache = %q, want miss (the owner computed it for this request)", c)
	}
	if p.ownerRuns.Load() != 1 || p.otherRuns.Load() != 0 {
		t.Fatalf("simulations: owner %d, non-owner %d; want 1 and 0", p.ownerRuns.Load(), p.otherRuns.Load())
	}
	if got := counter(p.owner, "server.jobs.executed"); got != 1 {
		t.Fatalf("owner server.jobs.executed = %d, want 1", got)
	}
	if counter(p.other, "server.peer.waits") != 1 || counter(p.other, "server.peer.wait_us") <= 0 {
		t.Fatalf("non-owner server.peer.waits = %d, wait_us = %d; want one timed wait",
			counter(p.other, "server.peer.waits"), counter(p.other, "server.peer.wait_us"))
	}
}

// TestPeerWaitFallsThrough: when the owner cannot deliver — its flight
// fails or ends cancelled, it dies mid-wait, it is unreachable, or its
// flight is still queued in admission — the non-owner simulates at once,
// and the peer request never makes the owner simulate.
func TestPeerWaitFallsThrough(t *testing.T) {
	// settle ends the owner's flight while the non-owner waits on it.
	settled := func(err error) func(*testing.T, *peerPair) string {
		return func(t *testing.T, p *peerPair) string {
			p.background(p.ownerTS.URL, "fall")
			<-p.entered
			go func() {
				<-p.joined
				p.release <- err
			}()
			return p.ownerTS.URL
		}
	}
	cases := map[string]func(*testing.T, *peerPair) string{
		"flight fails":     settled(fmt.Errorf("owner simulation failed")),
		"flight cancelled": settled(&runner.Canceled{Completed: 0, Total: 1, Cause: context.Canceled}),
		"owner dies mid-wait": func(t *testing.T, p *peerPair) string {
			p.background(p.ownerTS.URL, "fall")
			<-p.entered
			go func() {
				<-p.joined
				p.ownerTS.CloseClientConnections()
			}()
			return p.ownerTS.URL
		},
		"owner unreachable": func(t *testing.T, p *peerPair) string {
			dead := httptest.NewServer(http.NotFoundHandler())
			dead.Close()
			return dead.URL
		},
		"flight queued": func(t *testing.T, p *peerPair) string {
			// The owner's only slot is busy with another key, so the key's
			// own flight waits in admission.
			p.background(p.ownerTS.URL, "busy")
			<-p.entered
			p.background(p.ownerTS.URL, "fall")
			waitUntil(t, "the owner's flight to queue", func() bool {
				h := p.owner.Telemetry().Reg().Histogram("server.admit.queue_depth")
				return h.Count() == 2
			})
			return p.ownerTS.URL
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			p := newPeerPair(t, 1)
			owner := setup(t, p)
			ownerRuns := p.ownerRuns.Load()
			resp, body, err := p.post(p.otherURL, owner, "fall")
			if err != nil || resp.StatusCode != 200 || !strings.Contains(body, "hmmer@other") {
				t.Fatalf("non-owner reply %q (%v), want its own simulation", body, err)
			}
			if p.otherRuns.Load() != 1 {
				t.Fatalf("non-owner ran %d simulations, want 1", p.otherRuns.Load())
			}
			if p.ownerRuns.Load() != ownerRuns {
				t.Fatal("the peer request made the owner simulate")
			}
		})
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
