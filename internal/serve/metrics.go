package serve

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// latencyBuckets are the upper bounds (seconds) of the request-latency
// histogram, chosen to straddle the workloads the service hosts: point
// evaluations land in the sub-millisecond buckets, sweeps and figure
// regenerations in the tens-of-milliseconds range, and anything beyond a
// few seconds indicates saturation or an oversized request. The span
// histograms share the layout (obs.DurationBuckets is the same values)
// so per-stage and per-request latencies line up bucket for bucket.
var latencyBuckets = obs.DurationBuckets

// jobShardBuckets cover simulation-job shard durations, which run far
// longer than HTTP requests: a well-sized shard lands in the 0.1–10 s
// range, and the top buckets flag shards big enough to make
// checkpointing pointless.
var jobShardBuckets = []float64{0.005, 0.02, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60}

// workerPollBuckets cover the lease-poll backoff range: the base poll
// interval (0.5 s) through the TTL/2 cap an idle worker settles at.
var workerPollBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 30}

// metrics is the service's telemetry, all registered on one obs.Registry
// per server instance (so tests that build several servers never share
// counters). Family order in the scrape is registration order: the HTTP
// families first, then span durations and worker-pool timings, then the
// Go runtime, then the memo caches.
type metrics struct {
	reg           *obs.Registry
	requests      *obs.CounterVec   // by route pattern and status code
	latency       *obs.Histogram    // request seconds
	inFlight      *obs.Gauge        // requests currently admitted
	batchItems    *obs.CounterVec   // /v1/batch items by outcome
	batchRequests *obs.CounterVec   // /v1/batch requests by decode path
	streamedBytes *obs.Counter      // bytes written on NDJSON responses
	spanSeconds   *obs.HistogramVec // trace span durations by stage

	jobsTotal       *obs.CounterVec // simulation jobs by lifecycle state
	jobShardSeconds *obs.Histogram  // per-shard evaluation wall time
	jobTrialsPerSec *obs.FloatGauge // most recent job's live trial rate

	jobLeasesTotal    *obs.CounterVec // shard leases handed to remote workers
	jobPartialsTotal  *obs.CounterVec // remote shard uploads by outcome
	workerShards      *obs.CounterVec // shards this replica computed for peers
	workerPollSeconds *obs.Histogram  // per-peer lease-poll sleeps (backoff visible)
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		requests: reg.NewCounterVec("nanocostd_requests_total",
			"Requests served, by route pattern and status code.", "route", "code"),
		latency: reg.NewHistogramOn("nanocostd_request_seconds",
			"Request latency histogram.", latencyBuckets),
		inFlight: reg.NewGauge("nanocostd_in_flight",
			"Requests currently being served."),
		batchItems: reg.NewCounterVec("nanocostd_batch_items_total",
			"Batch items evaluated via /v1/batch, by outcome.", "outcome"),
		batchRequests: reg.NewCounterVec("nanocostd_batch_requests_total",
			"/v1/batch requests by decode path: fast (canonical body, scanned straight into typed items) or fallback (encoding/json).", "decode"),
		streamedBytes: reg.NewCounter("nanocostd_streamed_bytes_total",
			"Bytes written on NDJSON streaming responses."),
		spanSeconds: reg.NewHistogramVec("nanocostd_span_seconds",
			"Trace span durations, by stage.", obs.DurationBuckets, "stage"),
		jobsTotal: reg.NewCounterVec("nanocostd_jobs_total",
			"Simulation jobs, by lifecycle state (submitted/completed/failed/cancelled).", "state"),
		jobShardSeconds: reg.NewHistogramOn("nanocostd_job_shard_seconds",
			"Wall-clock evaluation time of completed simulation-job shards.", jobShardBuckets),
		jobTrialsPerSec: reg.NewFloatGauge("nanocostd_job_trials_per_sec",
			"Live trial throughput of the most recently progressing job (resumed shards excluded)."),
		jobLeasesTotal: reg.NewCounterVec("nanocostd_job_leases_total",
			"Distributed shard leases served over HTTP, by outcome (granted/renewed).", "outcome"),
		jobPartialsTotal: reg.NewCounterVec("nanocostd_job_partials_total",
			"Shard-partial uploads received over HTTP, by outcome (accepted/duplicate/rejected). Locally evaluated shards are not counted, so 'accepted' is exactly the remote contribution.", "outcome"),
		workerShards: reg.NewCounterVec("nanocostd_worker_shards_total",
			"Shards this replica's worker loop computed for peer coordinators, by outcome (uploaded/duplicate/failed).", "outcome"),
		workerPollSeconds: reg.NewHistogramOn("nanocostd_worker_poll_seconds",
			"Sleep chosen before each per-peer lease poll; exponential backoff with jitter, so the distribution shows how hard an idle fleet polls its coordinators.", workerPollBuckets),
	}
	// The worker pool's chunk timings are package-level instruments shared
	// by every pool user; attach them so a scrape correlates queue wait
	// with request latency.
	reg.AttachHistogram("nanocostd_pool_chunk_wait_seconds",
		"Worker-pool chunk queue-wait time: submission to pickup.",
		parallel.ChunkWaitSeconds())
	reg.AttachHistogram("nanocostd_pool_chunk_exec_seconds",
		"Worker-pool chunk execution time.",
		parallel.ChunkExecSeconds())
	reg.RegisterGoRuntime()
	// The memo caches keep their own counters in the model layer; render
	// them from memo.Stats at scrape time, one family at a time (the
	// format requires each family contiguous).
	reg.RegisterRaw([]string{
		"nanocostd_memo_cache_hits_total",
		"nanocostd_memo_cache_misses_total",
		"nanocostd_memo_cache_hit_rate",
	}, writeMemoFamilies)
	return m
}

// observe records one finished request.
func (m *metrics) observe(route string, code int, seconds float64) {
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.latency.Observe(seconds)
}

// writeTo renders the full scrape.
func (m *metrics) writeTo(w io.Writer) { m.reg.Render(w) }

func writeMemoFamilies(w io.Writer) {
	stats := memo.Stats()
	fmt.Fprintln(w, "# HELP nanocostd_memo_cache_hits_total Hits of each registered memo cache.")
	fmt.Fprintln(w, "# TYPE nanocostd_memo_cache_hits_total counter")
	for _, s := range stats {
		fmt.Fprintf(w, "nanocostd_memo_cache_hits_total{%s} %d\n", obs.Label("cache", s.Name), s.Hits)
	}
	fmt.Fprintln(w, "# HELP nanocostd_memo_cache_misses_total Misses of each registered memo cache.")
	fmt.Fprintln(w, "# TYPE nanocostd_memo_cache_misses_total counter")
	for _, s := range stats {
		fmt.Fprintf(w, "nanocostd_memo_cache_misses_total{%s} %d\n", obs.Label("cache", s.Name), s.Misses)
	}
	fmt.Fprintln(w, "# HELP nanocostd_memo_cache_hit_rate Hit rate of each registered memo cache.")
	fmt.Fprintln(w, "# TYPE nanocostd_memo_cache_hit_rate gauge")
	for _, s := range stats {
		fmt.Fprintf(w, "nanocostd_memo_cache_hit_rate{%s} %g\n", obs.Label("cache", s.Name), s.HitRate())
	}
}
