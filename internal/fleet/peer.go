// Worker-side cache peering client. A worker that receives a hedged or
// failed-over request (X-Mirage-Owner set) asks the key's owner for the
// bytes before simulating. The owner answers from its memory or disk tier,
// or — when its own flight for the key is already running — joins that
// flight and answers when it settles; it never simulates on a peer's
// behalf. So peering is never dearer than recomputing, and a hedge that
// fires while the owner simulates waits for the owner's result instead of
// computing the key a second time.
//
// The owner URL arrives in a request header, so it is attacker-reachable
// data: a worker only ever fetches from owners on its configured fleet
// allowlist (fail closed — an empty allowlist fetches from nobody), which
// keeps a forged X-Mirage-Owner from turning the peer fetch into an SSRF
// that poisons the cache and result store with attacker-chosen bytes.

package fleet

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/server"
)

// peerFetchTimeout bounds how long a peer fetch waits for the owner's
// response headers: past it the worker is better off simulating than
// waiting on a struggling owner. The owner sends its headers at once, also
// when it joins a running flight, whose body then arrives when the flight
// settles — a wait bounded by the fetch's ctx, not by this timeout, so a
// multi-second simulation is still waited on rather than repeated.
const peerFetchTimeout = 2 * time.Second

// NewPeerFetch returns a server.Config.PeerFetch implementation over
// client (nil uses a dedicated default). peers is the fleet membership
// allowlist — the worker base URLs the coordinator shards over, this
// worker included; an owner hint naming any other URL is refused without
// a request. auth, when non-empty, is sent as the server.PeerAuthHeader
// shared secret (the owning worker must be configured with the same
// value). The returned func GETs the owner's /internal/peer/cache
// endpoint and reports the bytes, the owner's tier (its X-Cache header)
// and ok. ok is true only for a 200 whose body arrived whole — and, from
// a joined flight, whose trailer says the flight succeeded; any error,
// timeout, miss, failed flight or allowlist refusal is !ok, and the caller
// simulates locally.
func NewPeerFetch(client *http.Client, peers []string, auth string) func(ctx context.Context, owner, key string) ([]byte, string, bool) {
	return newPeerFetch(client, peers, auth, peerFetchTimeout)
}

// newPeerFetch is NewPeerFetch with the header bound as a parameter.
func newPeerFetch(client *http.Client, peers []string, auth string, headerTimeout time.Duration) func(ctx context.Context, owner, key string) ([]byte, string, bool) {
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	allowed := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			allowed[p] = true
		}
	}
	return func(ctx context.Context, owner, key string) ([]byte, string, bool) {
		if !allowed[strings.TrimRight(owner, "/")] {
			return nil, "", false
		}
		pctx, cancel := context.WithCancel(ctx)
		defer cancel()
		u := owner + "/internal/peer/cache?key=" + url.QueryEscape(key)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, "", false
		}
		if auth != "" {
			req.Header.Set(server.PeerAuthHeader, auth)
		}
		// Only the headers are bounded: a timer that fires after Do returns
		// has cancelled pctx, and the body read below fails.
		headers := time.AfterFunc(headerTimeout, cancel)
		resp, err := client.Do(req)
		headers.Stop()
		if err != nil {
			return nil, "", false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return nil, "", false
		}
		tier := resp.Header.Get("X-Cache")
		b, err := io.ReadAll(resp.Body)
		if err != nil || (tier == server.PeerTierFlight && resp.Trailer.Get(server.PeerFlightTrailer) != server.PeerFlightOK) {
			return nil, tier, false
		}
		return b, tier, true
	}
}
