// Regression tests for the serving-layer bugfixes that rode along with the
// fleet PR: the bounded flight-record map, healthz drain status, flight-
// error-first status attribution in finish, and the stable "apps" shape.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// TestFlightsMapBounded drives >10k one-off job keys through the full
// handler stack and asserts the per-key flight-record map — which shadows
// the response cache for log attribution — stays bounded instead of
// leaking one record per distinct key ever served (the zipfian-tail growth
// PR 7 bounded the cache against).
func TestFlightsMapBounded(t *testing.T) {
	const bound = 256
	srv := newTestServer(t, func(c *Config) {
		c.CacheMaxEntries = bound
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			return fakeMixResult(cfg), nil
		}}
	})
	const keys = 10_050
	for i := 0; i < keys; i++ {
		body := fmt.Sprintf(`{"mix": ["hmmer"], "seed": "oneoff-%d"}`, i)
		if rec := postJSON(t, srv, "/v1/run", body); rec.Code != 200 {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	if got := srv.flightsLen(); got > bound {
		t.Fatalf("flights map holds %d records after %d one-off keys, want <= %d", got, keys, bound)
	}
	if got := srv.cache.Len(); got > bound {
		t.Fatalf("response cache holds %d entries, want <= %d", got, bound)
	}
	// Recency works: a repeat of the hottest (latest) key still attributes
	// its leader through the surviving record.
	body := fmt.Sprintf(`{"mix": ["hmmer"], "seed": "oneoff-%d"}`, keys-1)
	if rec := postJSON(t, srv, "/v1/run", body); rec.Code != 200 {
		t.Fatalf("repeat of hot key: %d", rec.Code)
	}
}

// TestFinishAttributesFlightErrorFirst is the race-shaped 504 regression:
// a flight that settled with a real simulation error in the same instant
// the request deadline expired must be reported as a 500 naming that
// error — ctx.Err() being DeadlineExceeded by the time finish looks must
// not win the attribution.
func TestFinishAttributesFlightErrorFirst(t *testing.T) {
	srv := newTestServer(t, nil)
	expiredCtx := func() context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		t.Cleanup(cancel)
		<-ctx.Done() // the deadline has observably fired, as in the race
		return ctx
	}
	canceledCtx := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	simErr := errors.New("disk on fire")
	cases := []struct {
		name     string
		ctx      context.Context
		err      error
		wantCode int
		wantSub  string
	}{
		// The race itself: real flight error + expired deadline → 500.
		{"real error under expired deadline", expiredCtx(), simErr, 500, "disk on fire"},
		// Real flight error + disconnected client → still the flight error.
		{"real error under canceled ctx", canceledCtx(), simErr, 500, "disk on fire"},
		// The flight error wraps the deadline → 504, as before.
		{"deadline error", expiredCtx(), context.DeadlineExceeded, 504, "deadline exceeded"},
		{"joined deadline error", expiredCtx(),
			errors.Join(context.DeadlineExceeded, &runner.Canceled{Completed: 2, Total: 5, Cause: context.Canceled}),
			504, "deadline exceeded"},
		// A cancellation-shaped flight error under an expired deadline is
		// the deadline's doing: fall back to ctx and report 504.
		{"canceled flight under expired deadline", expiredCtx(),
			&runner.Canceled{Completed: 1, Total: 3, Cause: context.Canceled}, 504, "deadline exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.finish(rec, tc.ctx, nil, runner.OutcomeLeader, "miss", tc.err)
			if rec.Code != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantCode, rec.Body.Bytes())
			}
			if !strings.Contains(rec.Body.String(), tc.wantSub) {
				t.Fatalf("body %q does not mention %q", rec.Body.String(), tc.wantSub)
			}
		})
	}
	// Client-gone stays a 499 with no body.
	rec := httptest.NewRecorder()
	srv.finish(rec, canceledCtx(), nil, runner.OutcomeLeader, "miss", context.Canceled)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("client-gone status %d, want %d", rec.Code, StatusClientClosedRequest)
	}
}

// TestRunResponseAppsNeverNull pins the response shape: "apps" is a JSON
// array even when the result carries no per-app rows, never null.
func TestRunResponseAppsNeverNull(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			res := fakeMixResult(cfg)
			res.Cluster.Apps = nil // empty mix result
			return res, nil
		}}
	})
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"]}`)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Apps json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(string(resp.Apps))
	if got != "[]" {
		t.Fatalf(`"apps" encodes as %s, want []`, got)
	}
	if strings.Contains(rec.Body.String(), `"apps": null`) {
		t.Fatalf("response flipped apps to null:\n%s", rec.Body.Bytes())
	}
}

// TestHealthzDrainingStatusCode: see TestGracefulShutdown for the e2e; this
// pins the exact code + body contract the fleet prober keys off.
func TestHealthzDrainingStatusCode(t *testing.T) {
	srv := newTestServer(t, nil)
	if rec := get(t, srv, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy healthz status %d", rec.Code)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv, "/v1/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", rec.Code)
	}
	var h struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("draining healthz body no longer JSON: %v: %s", err, rec.Body.Bytes())
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining healthz body = %+v", h)
	}
}
