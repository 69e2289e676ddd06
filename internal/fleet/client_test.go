package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastBackoff keeps retry tests quick.
func fastBackoff(cfg *ClientConfig) {
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffCap = 2 * time.Millisecond
}

// The inertness contract: a healthy single backend sees exactly one POST
// per Do and the report counters all stay zero.
func TestClientInertWhenHealthy(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c, err := NewClient(ClientConfig{URLs: []string{srv.URL}, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res := c.Do([]byte(`{"id":"r1"}`))
		if res.Err != nil || res.Status != http.StatusOK {
			t.Fatalf("healthy request failed: %+v", res)
		}
		if res.Retries != 0 || res.Failovers != 0 {
			t.Fatalf("resilience machinery fired on a healthy backend: %+v", res)
		}
	}
	if got := atomic.LoadInt32(&hits); got != 5 {
		t.Fatalf("backend saw %d requests, want 5 (one per Do)", got)
	}
}

// Transient 5xx answers burn retries until one attempt lands.
func TestClientRetriesUntilSuccess(t *testing.T) {
	var n int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&n, 1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	cfg := ClientConfig{URLs: []string{srv.URL}, Retries: 3}
	fastBackoff(&cfg)
	c, _ := NewClient(cfg)
	res := c.Do([]byte(`{"id":"r2"}`))
	if res.Err != nil || res.Status != http.StatusOK {
		t.Fatalf("want eventual success, got %+v err=%v", res, res.Err)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
}

// A torn response body (a backend that crashed mid-write) is an attempt
// failure, never a parseable answer.
func TestClientTornResponseRetries(t *testing.T) {
	var n int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&n, 1) == 1 {
			w.Header().Set("Content-Length", "100")
			w.Write([]byte("torn prefix"))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	cfg := ClientConfig{URLs: []string{srv.URL}, Retries: 2}
	fastBackoff(&cfg)
	c, _ := NewClient(cfg)
	res := c.Do([]byte(`{"id":"r3"}`))
	if res.Err != nil || res.Status != http.StatusOK {
		t.Fatalf("want success after torn retry, got %+v err=%v", res, res.Err)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries)
	}
}

// A shed that is NOT a drain (queue-full) is a final answer: the service
// is coping, not broken, and hammering it with retries would make the
// overload worse.
func TestClientShedIsFinal(t *testing.T) {
	var hits int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.Header().Set(HeaderShedReason, "queue-full")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	cfg := ClientConfig{URLs: []string{srv.URL}, Retries: 5}
	fastBackoff(&cfg)
	c, _ := NewClient(cfg)
	res := c.Do([]byte(`{"id":"r6"}`))
	if res.Err != nil || res.Status != http.StatusTooManyRequests || res.Shed != "queue-full" {
		t.Fatalf("want the shed surfaced, got %+v err=%v", res, res.Err)
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Fatalf("backend saw %d requests, want 1: sheds must not be retried", got)
	}
}

// The per-request deadline bounds everything: retries and backoff.
func TestClientDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer srv.Close()
	cfg := ClientConfig{URLs: []string{srv.URL}, Timeout: 50 * time.Millisecond, Retries: 3}
	fastBackoff(&cfg)
	c, _ := NewClient(cfg)
	t0 := time.Now()
	res := c.Do([]byte(`{"id":"r9"}`))
	if res.Err == nil {
		t.Fatalf("want deadline error, got status %d", res.Status)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("Do took %v, deadline 50ms did not bound it", el)
	}
}

// The client sends to one URL: zero or several are refused up front,
// with an error that points at the router.
func TestNewClientTakesOneURL(t *testing.T) {
	for _, urls := range [][]string{nil, {"http://127.0.0.1:1", "http://127.0.0.1:2"}} {
		_, err := NewClient(ClientConfig{URLs: urls})
		if err == nil || !strings.Contains(err.Error(), "synts route") {
			t.Errorf("%d URLs: err = %v, want a refusal naming synts route", len(urls), err)
		}
	}
}
