package front

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestRingOrderIsCompleteAndDeterministic: the preference walk yields
// every replica exactly once, independent of input order, and spreads
// first choices across the set.
func TestRingOrderIsCompleteAndDeterministic(t *testing.T) {
	replicas := []string{"10.0.0.3:1", "10.0.0.1:1", "10.0.0.2:1"}
	a := newRing(replicas)
	b := newRing([]string{"10.0.0.2:1", "10.0.0.3:1", "10.0.0.1:1"})

	first := map[string]int{}
	for key := uint64(0); key < 1000; key++ {
		oa, ob := a.order(key*0x9e3779b97f4a7c15), b.order(key*0x9e3779b97f4a7c15)
		if len(oa) != 3 {
			t.Fatalf("order returned %d replicas, want 3", len(oa))
		}
		seen := map[string]bool{}
		for _, addr := range oa {
			if seen[addr] {
				t.Fatalf("replica %s repeated in %v", addr, oa)
			}
			seen[addr] = true
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("rings over the same set disagree: %v vs %v", oa, ob)
			}
		}
		first[oa[0]]++
	}
	for _, addr := range a.replicas {
		// With 64 vnodes each of 3 replicas should own a healthy share of
		// 1000 keys; 100 is a loose floor that only breaks on real skew.
		if first[addr] < 100 {
			t.Fatalf("replica %s owns only %d/1000 first choices: %v", addr, first[addr], first)
		}
	}
}

// echoBackend answers every request with its own name plus the request
// content, so tests can see both the routing decision and the payload.
func echoBackend(name string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s:%s %s %s", name, r.Method, r.URL.RequestURI(), body)
	}))
}

func hostPort(ts *httptest.Server) string {
	u, _ := url.Parse(ts.URL)
	return u.Host
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// via sends one request through the router's handler.
func via(t *testing.T, rt *Router, method, target, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Result().Header, rec.Body.Bytes()
}

// bodyKeyedTo brute-forces a request body whose content key makes addr
// the first choice on rt's ring, so tests can aim traffic.
func bodyKeyedTo(t *testing.T, rt *Router, method, path, addr string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		body := fmt.Sprintf(`{"n":%d}`, i)
		req := httptest.NewRequest(method, path, nil)
		if rt.ring.order(requestKey(req, []byte(body)))[0] == addr {
			return body
		}
	}
	t.Fatalf("no body found keying to %s", addr)
	return ""
}

// TestRouterShardsByContent: the same content always lands on the same
// replica, and distinct contents use more than one.
func TestRouterShardsByContent(t *testing.T) {
	a, b := echoBackend("a"), echoBackend("b")
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(a), hostPort(b)}})

	backends := map[string]bool{}
	for i := 0; i < 32; i++ {
		body := fmt.Sprintf(`{"n":%d}`, i)
		var firstSeen string
		for rep := 0; rep < 3; rep++ {
			_, hdr, _ := via(t, rt, "POST", "/v1/cost", body)
			be := hdr.Get("X-Backend")
			if firstSeen == "" {
				firstSeen = be
			} else if be != firstSeen {
				t.Fatalf("content %q moved from %s to %s between requests", body, firstSeen, be)
			}
		}
		backends[firstSeen] = true
	}
	if len(backends) != 2 {
		t.Fatalf("32 distinct contents all routed to one replica: %v", backends)
	}
}

// TestRouterFailoverByteIdentical is the satellite-4 regression test:
// kill the replica that owns a request, and the retry on the next ring
// member must return a byte-identical response.
func TestRouterFailoverByteIdentical(t *testing.T) {
	newReplica := func() (*httptest.Server, *serve.Server) {
		s := serve.NewServer(serve.Config{Logger: discardLogger()})
		return httptest.NewServer(s.Handler()), s
	}
	tsA, sA := newReplica()
	tsB, sB := newReplica()
	defer tsB.Close()
	defer sA.Close()
	defer sB.Close()

	rt := newTestRouter(t, Config{Replicas: []string{hostPort(tsA), hostPort(tsB)}})
	// /v1/cost is a pure function of its body, so replicas agree byte for
	// byte; aim the content at replica A.
	probe := bodyKeyedToScenario(t, rt, hostPort(tsA))

	code, hdr, want := via(t, rt, "POST", "/v1/cost", probe)
	if code != http.StatusOK {
		t.Fatalf("pre-kill request = %d %s", code, want)
	}
	if hdr.Get("X-Backend") != hostPort(tsA) {
		t.Fatalf("probe routed to %s, want %s", hdr.Get("X-Backend"), hostPort(tsA))
	}

	tsA.Close() // kill the owning replica mid-flight

	code2, hdr2, got := via(t, rt, "POST", "/v1/cost", probe)
	if code2 != http.StatusOK {
		t.Fatalf("post-kill request = %d %s", code2, got)
	}
	if be := hdr2.Get("X-Backend"); be != hostPort(tsB) {
		t.Fatalf("post-kill request served by %s, want failover to %s", be, hostPort(tsB))
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("failover response differs:\n%s\n%s", want, got)
	}
	if rt.retriesTotal.Value() == 0 {
		t.Fatal("failover did not count a retry")
	}
}

// bodyKeyedToScenario finds a valid /v1/cost scenario (wafer count
// varies) whose content key makes addr the first choice.
func bodyKeyedToScenario(t *testing.T, rt *Router, addr string) string {
	t.Helper()
	for w := 1000; w < 20000; w++ {
		body := fmt.Sprintf(`{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":%d}`, w)
		req := httptest.NewRequest("POST", "/v1/cost", nil)
		if rt.ring.order(requestKey(req, []byte(body)))[0] == addr {
			return body
		}
	}
	t.Fatalf("no scenario found keying to %s", addr)
	return ""
}

// TestRouterDoesNotRetryNonIdempotentPOST: a POST outside the
// idempotent route set must fail with 502 rather than replay on the
// next member when its owner is down.
func TestRouterDoesNotRetryNonIdempotentPOST(t *testing.T) {
	a, b := echoBackend("a"), echoBackend("b")
	defer b.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(a), hostPort(b)}})
	body := bodyKeyedTo(t, rt, "POST", "/v1/mutate", hostPort(a))
	a.Close()

	code, _, resp := via(t, rt, "POST", "/v1/mutate", body)
	if code != http.StatusBadGateway {
		t.Fatalf("non-idempotent POST to dead owner = %d %s, want 502", code, resp)
	}
	if rt.retriesTotal.Value() != 0 {
		t.Fatalf("non-idempotent POST was retried %d times", rt.retriesTotal.Value())
	}
}

// TestRouterBenchAndRecover: a transport failure benches the replica
// (visible on /frontz and /readyz semantics); after the cooldown a
// successful request un-benches it.
func TestRouterBenchAndRecover(t *testing.T) {
	a := echoBackend("a")
	defer a.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(a)}, BenchFor: 30 * time.Millisecond})

	// Stop listening to force a transport failure, keeping the address.
	addr := hostPort(a)
	a.Close()
	if code, _, _ := via(t, rt, "GET", "/v1/figures/1", ""); code != http.StatusBadGateway {
		t.Fatalf("dead single replica gave %d, want 502", code)
	}
	if !rt.benched(addr) {
		t.Fatal("failed replica was not benched")
	}
	if code, _, body := via(t, rt, "GET", "/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all replicas benched = %d %s, want 503", code, body)
	}
	var frontz struct {
		Replicas []struct {
			Addr    string `json:"addr"`
			Benched bool   `json:"benched"`
		} `json:"replicas"`
	}
	_, _, raw := via(t, rt, "GET", "/frontz", "")
	if err := json.Unmarshal(raw, &frontz); err != nil {
		t.Fatalf("frontz %s: %v", raw, err)
	}
	if len(frontz.Replicas) != 1 || !frontz.Replicas[0].Benched {
		t.Fatalf("frontz = %s, want the one replica benched", raw)
	}

	// Bring a listener back on the same address and wait out the bench.
	a2 := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "back")
	}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	a2.Listener.Close()
	a2.Listener = ln
	a2.Start()
	defer a2.Close()
	time.Sleep(50 * time.Millisecond)

	code, _, body := via(t, rt, "GET", "/v1/figures/1", "")
	if code != http.StatusOK || string(body) != "back" {
		t.Fatalf("recovered replica gave %d %q", code, body)
	}
	if rt.benched(addr) {
		t.Fatal("successful request did not un-bench the replica")
	}
	if code, _, _ := via(t, rt, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatal("readyz not ready after recovery")
	}
}

// TestRouterBodyTooLarge: an oversized body is rejected at the router,
// 413, without touching any backend.
func TestRouterBodyTooLarge(t *testing.T) {
	a := echoBackend("a")
	defer a.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(a)}, MaxBodyBytes: 16})
	code, _, body := via(t, rt, "POST", "/v1/cost", strings.Repeat("x", 64))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d %s, want 413", code, body)
	}
}

// TestProxyPreservesEscapedPath is the escaped-path regression test: a
// path segment carrying an encoded slash must reach the backend in its
// escaped form, not decoded into extra path segments.
func TestProxyPreservesEscapedPath(t *testing.T) {
	a := echoBackend("a")
	defer a.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(a)}})

	code, _, body := via(t, rt, "GET", "/v1/figures/1%2F2", "")
	if code != http.StatusOK {
		t.Fatalf("escaped-path request = %d %s", code, body)
	}
	if !strings.Contains(string(body), "/v1/figures/1%2F2") {
		t.Fatalf("backend saw %q, want the escaped path /v1/figures/1%%2F2 intact", body)
	}

	// The content key must distinguish the escaped from the decoded
	// path too, or both spellings would share a replica's caches under
	// one identity while backends treat them as different resources.
	esc := httptest.NewRequest("GET", "/v1/figures/1%2F2", nil)
	dec := httptest.NewRequest("GET", "/v1/figures/1/2", nil)
	if requestKey(esc, nil) == requestKey(dec, nil) {
		t.Fatal("requestKey collapses the escaped and decoded figure paths")
	}
}

// TestTransportErrorCounted: a failed proxy attempt must show up in
// front_requests_total under code="transport_error" — before this fix
// such attempts were invisible in the per-replica request counts.
func TestTransportErrorCounted(t *testing.T) {
	a := echoBackend("a")
	addr := hostPort(a)
	a.Close() // keep the address, kill the listener
	rt := newTestRouter(t, Config{Replicas: []string{addr}})

	if code, _, _ := via(t, rt, "GET", "/v1/figures/1", ""); code != http.StatusBadGateway {
		t.Fatalf("dead replica gave %d, want 502", code)
	}
	if got := rt.requestsTotal.With(addr, "transport_error").Value(); got != 1 {
		t.Fatalf("transport_error count = %d, want 1", got)
	}
}

// jobIDKeyedTo brute-forces a job id whose ring key makes addr the
// first choice, so tests can aim job traffic.
func jobIDKeyedTo(t *testing.T, rt *Router, addr string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%016x", i)
		req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
		if rt.ring.order(requestKey(req, nil))[0] == addr {
			return id
		}
	}
	t.Fatalf("no job id found keying to %s", addr)
	return ""
}

// TestJobRoutesKeyByID: every sub-resource of one job — status, result,
// lease, partials — computes the same ring key regardless of method,
// query, and body, so they all prefer the job's coordinator replica.
func TestJobRoutesKeyByID(t *testing.T) {
	id := "00112233aabbccdd"
	base := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
	want := requestKey(base, nil)
	for _, tc := range []struct{ method, target string }{
		{"GET", "/v1/jobs/" + id + "/result"},
		{"GET", "/v1/jobs/" + id + "?verbose=1"},
		{"POST", "/v1/jobs/" + id + "/lease"},
		{"POST", "/v1/jobs/" + id + "/partials"},
	} {
		req := httptest.NewRequest(tc.method, tc.target, nil)
		if got := requestKey(req, []byte(`{"owner":"w"}`)); got != want {
			t.Fatalf("%s %s keys to %d, want the job's key %d", tc.method, tc.target, got, want)
		}
	}
	// The open listing is not a job and must not share the keyspace.
	open := httptest.NewRequest("GET", "/v1/jobs/open", nil)
	if requestKey(open, nil) == want {
		t.Fatal("/v1/jobs/open collides with a job id key")
	}
}

// TestJobRouteChasesNotFound: when the id-keyed first choice does not
// track the job (submits shard by body, so the coordinator can be any
// replica), a 404 is chased to the next ring member instead of being
// relayed to the client.
func TestJobRouteChasesNotFound(t *testing.T) {
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":{"code":"job_not_found","message":"no tracked job"}}`)
	}))
	defer notFound.Close()
	owner := echoBackend("owner")
	defer owner.Close()

	rt := newTestRouter(t, Config{Replicas: []string{hostPort(notFound), hostPort(owner)}})
	id := jobIDKeyedTo(t, rt, hostPort(notFound))

	code, hdr, body := via(t, rt, "GET", "/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK || hdr.Get("X-Backend") != hostPort(owner) {
		t.Fatalf("chased request = %d via %s (%s), want 200 from %s",
			code, hdr.Get("X-Backend"), body, hostPort(owner))
	}
	if got := rt.jobChasesTotal.Value(); got != 1 {
		t.Fatalf("job chases = %d, want 1", got)
	}
	// The 404 the chase skipped still counts against the replica that
	// answered it.
	if got := rt.requestsTotal.With(hostPort(notFound), "404").Value(); got != 1 {
		t.Fatalf("chased 404 not counted: %d", got)
	}

	// The distributed-job control POSTs ride the same chase.
	code, hdr, _ = via(t, rt, "POST", "/v1/jobs/"+id+"/partials", `{"owner":"w","shard":0,"chunks":[]}`)
	if code != http.StatusOK || hdr.Get("X-Backend") != hostPort(owner) {
		t.Fatalf("partials chase = %d via %s, want 200 from %s", code, hdr.Get("X-Backend"), hostPort(owner))
	}
}

// TestJobRouteChaseExhausted: when no replica knows the job the last
// 404 is relayed — the chase changes who answers, never what a missing
// job looks like.
func TestJobRouteChaseExhausted(t *testing.T) {
	mk404 := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":{"code":"job_not_found","message":"no tracked job"}}`)
		}))
	}
	a, b := mk404(), mk404()
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(a), hostPort(b)}})

	code, _, body := via(t, rt, "GET", "/v1/jobs/feedfacefeedface", "")
	if code != http.StatusNotFound || !strings.Contains(string(body), "job_not_found") {
		t.Fatalf("exhausted chase = %d %s, want the backend 404 relayed", code, body)
	}
}

// TestAttemptOrderStableUnderBench: benching a replica moves it to the
// back of the attempt order without reshuffling the others, and the
// ring's own preference order never changes — so a bench during one
// request cannot re-aim unrelated keys.
func TestAttemptOrderStableUnderBench(t *testing.T) {
	rt := newTestRouter(t, Config{
		Replicas: []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"},
		BenchFor: time.Minute,
	})
	for key := uint64(1); key <= 64; key++ {
		ringBefore := rt.ring.order(key)
		rt.bench(ringBefore[0])
		if got := rt.ring.order(key); !slicesEqual(got, ringBefore) {
			t.Fatalf("ring.order changed under bench: %v vs %v", got, ringBefore)
		}
		want := append(append([]string{}, ringBefore[1:]...), ringBefore[0])
		if got := rt.attemptOrder(key); !slicesEqual(got, want) {
			t.Fatalf("attemptOrder with %s benched = %v, want %v", ringBefore[0], got, want)
		}
		rt.unbench(ringBefore[0])
		if got := rt.attemptOrder(key); !slicesEqual(got, ringBefore) {
			t.Fatalf("attemptOrder after unbench = %v, want %v", got, ringBefore)
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRelayFlushesNDJSONStream: an NDJSON stream — here a job status
// stream whose job finishes only when the test says so — is relayed line
// by line, so its first line reaches the client through the router while
// the job is still running, not when the stream ends.
func TestRelayFlushesNDJSONStream(t *testing.T) {
	finish := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"state":"running"}`+"\n")
		w.(http.Flusher).Flush()
		select {
		case <-finish:
			io.WriteString(w, `{"state":"done"}`+"\n")
		case <-r.Context().Done():
		}
	}))
	defer backend.Close()
	rt := newTestRouter(t, Config{Replicas: []string{hostPort(backend)}})
	fe := httptest.NewServer(rt.Handler())
	defer fe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", fe.URL+"/v1/jobs/j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := fe.Client().Do(req)
	if err != nil {
		t.Fatalf("status stream through the router: %v", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != `{"state":"running"}`+"\n" {
		t.Fatalf("first line %q (%v) did not arrive while the job ran", line, err)
	}
	close(finish)
	rest, err := io.ReadAll(br)
	if err != nil || string(rest) != `{"state":"done"}`+"\n" {
		t.Fatalf("rest of the stream %q (%v)", rest, err)
	}
}
