package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/front"
	"repro/internal/serve"
)

// discardHandler is a slog handler that is never enabled, so the tier's
// access logs cost only the level check.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var discardLogger = slog.New(discardHandler{})

// replicaCount is the number of nanocostd replicas behind the router.
const replicaCount = 2

// tier is one boot of the serving stack in this process: a front.Router
// in front of replicaCount serve.Server replicas, each on its own
// loopback listener. With a recorder, every layer's handler is wrapped
// so the recorder can time it; without one the handlers are mounted
// bare.
type tier struct {
	router       *front.Router
	replicas     []*serve.Server
	replicaAddrs []string
	routerURL    string
	servers      []*http.Server
	wg           sync.WaitGroup
}

// bootTier starts the stack with replica job directories under jobDir.
func bootTier(jobDir string, rec *recorder) (*tier, error) {
	t := &tier{}
	var lns []net.Listener
	for i := 0; i < replicaCount+1; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
	}
	for i := 0; i < replicaCount; i++ {
		s := serve.NewServer(serve.Config{
			Addr:   lns[i].Addr().String(),
			Logger: discardLogger,
			JobDir: filepath.Join(jobDir, "replica-"+strconv.Itoa(i)),
		})
		// The replica is mounted on our own http.Server (so its handler
		// can be wrapped); MarkReady is what Serve would have done.
		s.MarkReady()
		t.replicas = append(t.replicas, s)
		t.replicaAddrs = append(t.replicaAddrs, lns[i].Addr().String())
		t.serve(lns[i], rec.wrap(layerServe, i, s.Handler()))
	}
	rt, err := front.New(front.Config{Replicas: t.replicaAddrs, Logger: discardLogger})
	if err != nil {
		lns[replicaCount].Close()
		t.close()
		return nil, err
	}
	t.router = rt
	t.routerURL = "http://" + lns[replicaCount].Addr().String()
	t.serve(lns[replicaCount], rec.wrap(layerFront, -1, rt.Handler()))
	return t, nil
}

func (t *tier) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	t.servers = append(t.servers, srv)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
}

// close shuts every listener down, stops the replicas' background jobs
// and waits for the serve goroutines to exit.
func (t *tier) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(t.servers) - 1; i >= 0; i-- {
		t.servers[i].Shutdown(ctx) // a timed-out drain still closes the listener
	}
	for _, s := range t.replicas {
		s.Close()
	}
	t.wg.Wait()
}

// ready polls /readyz on the router and every replica until each answers
// 200, or the timeout passes.
func (t *tier) ready(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	urls := []string{t.routerURL}
	for _, a := range t.replicaAddrs {
		urls = append(urls, "http://"+a)
	}
	for _, u := range urls {
		for {
			resp, err := c.Get(u + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s/readyz not ready after %v", u, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// errStatus reports a non-2xx response.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// do sends one request with the given request id and reads the whole
// response body into buf. It returns the status code.
func do(c *http.Client, base string, rq request, reqID string, accept string, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, base+rq.path, body)
	if err != nil {
		return 0, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read body: %w", err)
	}
	return resp.StatusCode, nil
}

// doOK is do that treats any non-2xx status as an error.
func doOK(c *http.Client, base string, rq request, reqID, accept string, buf *bytes.Buffer) error {
	code, err := do(c, base, rq, reqID, accept, buf)
	if err != nil {
		return err
	}
	if code < 200 || code > 299 {
		return &errStatus{code: code, body: buf.String()}
	}
	return nil
}

// scrape fetches one server's /metrics exposition.
func scrape(c *http.Client, base string) (string, error) {
	var buf bytes.Buffer
	if err := doOK(c, base, request{method: "GET", path: "/metrics"}, "scrape", "", &buf); err != nil {
		return "", fmt.Errorf("scrape %s: %w", base, err)
	}
	return buf.String(), nil
}

// scrapeAll returns the router's exposition and every replica's.
func (t *tier) scrapeAll(c *http.Client) (router string, replicas []string, err error) {
	router, err = scrape(c, t.routerURL)
	if err != nil {
		return "", nil, err
	}
	for _, a := range t.replicaAddrs {
		s, err := scrape(c, "http://"+a)
		if err != nil {
			return "", nil, err
		}
		replicas = append(replicas, s)
	}
	return router, replicas, nil
}
