package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// window is what one timed window measured.
type window struct {
	ops, failed int64
	evals       int64         // eq (4)/(6) evaluations asked for (interactive, bulk) or trials (job)
	lat         []float64     // per-operation latency, ms, sorted
	elapsed     time.Duration // first send to last completion
	cpu         time.Duration
	peakRSSMB   float64
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	jobs        []jobRun // job workload only
}

// procMark holds the process counters read at both ends of a window.
type procMark struct {
	cpu time.Duration
	ms  runtime.MemStats
}

func mark() procMark {
	var m procMark
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	return m
}

// measure runs body as one timed window: a GC first, so garbage from
// set-up and warm-up is not collected inside the window, then process
// counters and RSS sampling around body.
func measure(body func(w *window) error) (*window, error) {
	runtime.GC()
	w := &window{}
	rss := startRSSSampler()
	a := mark()
	err := body(w)
	b := mark()
	peak, rerr := rss.stop()
	if err != nil {
		return nil, err
	}
	if rerr != nil {
		return nil, rerr
	}
	w.cpu = b.cpu - a.cpu
	w.peakRSSMB = peak
	w.mallocs = b.ms.Mallocs - a.ms.Mallocs
	w.allocBytes = b.ms.TotalAlloc - a.ms.TotalAlloc
	w.gcCycles = b.ms.NumGC - a.ms.NumGC
	sort.Float64s(w.lat)
	return w, nil
}

// opFunc performs operation i on one client. It returns the latency of
// the HTTP exchange alone (input generation and the oracle check are
// outside it) and whether the operation succeeded: no transport error,
// status 200 and a body matching the oracle.
type opFunc func(c *clientState, i uint64) (time.Duration, bool)

// clientState is one closed-loop client's reusable state.
type clientState struct {
	http *http.Client
	buf  bytes.Buffer
	lat  []float64
}

// closedLoop runs clients closed-loop clients until the deadline: each
// sends its next operation only after the previous one completed.
// Operation indices come from next, so the sequence of inputs is the
// same whatever the interleaving. Latencies are appended to w.lat, and
// each successful operation i adds evals(i) to w.evals.
func closedLoop(w *window, c *http.Client, clients int, d time.Duration, next *atomic.Uint64, op opFunc, evals func(uint64) int64) {
	start := time.Now()
	deadline := start.Add(d)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		ops    atomic.Int64
		failed atomic.Int64
		nevals atomic.Int64
		last   time.Time
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := &clientState{http: c, lat: make([]float64, 0, 1<<16)}
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				lat, ok := op(cs, i)
				cs.lat = append(cs.lat, float64(lat)/1e6)
				ops.Add(1)
				if !ok {
					failed.Add(1)
					continue
				}
				nevals.Add(evals(i))
			}
			end := time.Now()
			mu.Lock()
			w.lat = append(w.lat, cs.lat...)
			if end.After(last) {
				last = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.ops += ops.Load()
	w.failed += failed.Load()
	w.evals += nevals.Load()
	w.elapsed = last.Sub(start)
}

// checkBody compares a 200 response body with its expected digest.
func checkBody(code int, err error, body []byte, want digest) bool {
	return err == nil && code == http.StatusOK && sha256.Sum256(body) == want
}

// jobRun is one job of the job workload.
type jobRun struct {
	index    uint64
	id       string
	result   []byte
	toResult time.Duration // submit sent to result received
	err      error
}

// jobStatus is the subset of a job status line the benchmark reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// submitJob posts job i and returns its id. A new job answers 202; any
// other status means the spec was not fresh or was refused.
func submitJob(c *http.Client, base string, seed, i uint64, buf *bytes.Buffer) (string, error) {
	rq := request{method: "POST", path: "/v1/jobs", body: jobBody(seed, i)}
	code, err := do(c, base, rq, "job-"+strconv.FormatUint(i, 10)+"-submit", "", buf)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", &errStatus{code: code, body: buf.String()}
	}
	var st jobStatus
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("submit job %d: bad status body %q", i, buf.String())
	}
	return st.ID, nil
}

// runJob submits job i through the router, waits for its NDJSON status
// stream to close at the terminal state, and fetches the result.
func runJob(c *http.Client, base string, seed, i uint64) jobRun {
	jr := jobRun{index: i}
	var buf bytes.Buffer
	t0 := time.Now()
	id, err := submitJob(c, base, seed, i, &buf)
	if err != nil {
		jr.err = err
		return jr
	}
	jr.id = id
	rid := "job-" + strconv.FormatUint(i, 10)
	if err := doOK(c, base, request{method: "GET", path: "/v1/jobs/" + id}, rid+"-stream", "application/x-ndjson", &buf); err != nil {
		jr.err = fmt.Errorf("job %s stream: %w", id, err)
		return jr
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var st jobStatus
	if err := json.Unmarshal(lines[len(lines)-1], &st); err != nil || st.State != "done" {
		jr.err = fmt.Errorf("job %s stream ended in %q: %s", id, st.State, lines[len(lines)-1])
		return jr
	}
	if err := doOK(c, base, request{method: "GET", path: "/v1/jobs/" + id + "/result"}, rid+"-result", "", &buf); err != nil {
		jr.err = fmt.Errorf("job %s result: %w", id, err)
		return jr
	}
	jr.toResult = time.Since(t0)
	jr.result = append([]byte(nil), buf.Bytes()...)
	return jr
}

// jobLoop runs jobs one at a time, at least one, until d has passed;
// the window ends when the last job's result arrives.
func jobLoop(w *window, c *http.Client, base string, seed uint64, d time.Duration, next *atomic.Uint64) {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		jr := runJob(c, base, seed, next.Add(1)-1)
		w.ops++
		if jr.err != nil {
			w.failed++
		} else {
			w.evals += jobTrials
			w.lat = append(w.lat, float64(jr.toResult)/1e6)
		}
		w.jobs = append(w.jobs, jr)
	}
	w.elapsed = time.Since(start)
}

// setupJob is the job workload's request shapes during set-up: submit
// job i and read one status snapshot. It returns the job id so the
// caller can cancel the job once set-up is timed. Set-up does not wait
// on the NDJSON stream: the router relays a stream without flushing, so
// its first line reaches the client only when the job ends.
func setupJob(c *http.Client, base string, seed, i uint64) (string, error) {
	var buf bytes.Buffer
	id, err := submitJob(c, base, seed, i, &buf)
	if err != nil {
		return "", err
	}
	if err := doOK(c, base, request{method: "GET", path: "/v1/jobs/" + id}, "setup-status", "", &buf); err != nil {
		return "", fmt.Errorf("setup job %s status: %w", id, err)
	}
	return id, nil
}

// cancelJob deletes a job and waits for the server to settle it.
func cancelJob(c *http.Client, base, id string) error {
	var buf bytes.Buffer
	return doOK(c, base, request{method: "DELETE", path: "/v1/jobs/" + id}, "cancel-"+id, "", &buf)
}
