package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// expositionSample is one parsed line of the text exposition format.
type expositionSample struct {
	family string // metric name with _bucket/_sum/_count stripped
	name   string
	labels string
	value  string
}

// parseExposition splits a /metrics body into comments and samples, using
// only the grammar of the text exposition format (no Prometheus library in
// the module, by design).
func parseExposition(t *testing.T, body []byte) (samples []expositionSample, types map[string]string) {
	t.Helper()
	types = map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("family %s declared twice: samples are not contiguous", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels := line, ""
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("unbalanced braces: %q", line)
			}
			name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("malformed sample: %q", line)
			}
			name, rest = fields[0], fields[1]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok {
				if _, histogram := types[f]; histogram {
					family = f
				}
				break
			}
		}
		samples = append(samples, expositionSample{family: family, name: name, labels: labels, value: rest})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

// TestMetricsExpositionConformance is the regression test for the
// Prometheus text-format violations: interleaved metric families,
// non-cumulative histogram buckets, a +Inf bucket disagreeing with _count,
// and label values escaped with Go syntax instead of the format's.
func TestMetricsExpositionConformance(t *testing.T) {
	s := newTestServer(t, Config{})
	// Traffic across several routes and statuses, plus latencies straddling
	// several buckets, so the histogram and counters have structure.
	for i, sec := range []float64{0.0001, 0.0007, 0.004, 0.004, 0.08, 3} {
		s.metrics.observe("/v1/cost", 200+i%2*204, sec)
	}
	// A hostile label value: every character class the format makes you
	// escape, plus ones Go's %q would mangle (the conformance bug).
	weird := "/v1/\\evil\"route\nwith\tunicodeé"
	s.metrics.observe(weird, 400, 0.001)
	s.metrics.batchItems.With("ok").Add(7)
	s.metrics.batchRequests.With("fast").Add(3)
	s.metrics.batchRequests.With("fallback").Inc()
	s.metrics.streamedBytes.Add(1234)
	// Span-duration samples across two stages, so the labelled histogram
	// family has structure to check.
	s.metrics.spanSeconds.With("core.eval").Observe(0.002)
	s.metrics.spanSeconds.With("serve.request").Observe(0.01)
	// Job telemetry: lifecycle counters, a shard duration past the request
	// histogram's range, and the float throughput gauge.
	s.metrics.jobsTotal.With("submitted").Add(3)
	s.metrics.jobsTotal.With("completed").Add(2)
	s.metrics.jobsTotal.With("failed").Inc()
	s.metrics.jobShardSeconds.Observe(12.5)
	s.metrics.jobTrialsPerSec.Set(2_500_000.5)

	code, _, body := rawDo(t, s, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	samples, types := parseExposition(t, body)

	// Families must be contiguous: once a family's samples stop, the name
	// must not reappear later in the scrape.
	last := map[string]int{}
	for i, smp := range samples {
		if prev, seen := last[smp.family]; seen && prev != i-1 {
			t.Errorf("family %s has non-contiguous samples (lines %d and %d)", smp.family, prev, i)
		}
		last[smp.family] = i
	}

	// Every sample belongs to a declared family; core families carry the
	// right type.
	for _, smp := range samples {
		if _, ok := types[smp.family]; !ok {
			t.Errorf("sample %s has no TYPE declaration", smp.name)
		}
	}
	for family, want := range map[string]string{
		"nanocostd_requests_total":          "counter",
		"nanocostd_request_seconds":         "histogram",
		"nanocostd_in_flight":               "gauge",
		"nanocostd_batch_items_total":       "counter",
		"nanocostd_batch_requests_total":    "counter",
		"nanocostd_streamed_bytes_total":    "counter",
		"nanocostd_memo_cache_hits_total":   "counter",
		"nanocostd_memo_cache_misses_total": "counter",
		"nanocostd_memo_cache_hit_rate":     "gauge",
		"nanocostd_span_seconds":            "histogram",
		"nanocostd_jobs_total":              "counter",
		"nanocostd_job_shard_seconds":       "histogram",
		"nanocostd_job_trials_per_sec":      "gauge",
		"nanocostd_pool_chunk_wait_seconds": "histogram",
		"nanocostd_pool_chunk_exec_seconds": "histogram",
		"nanocostd_worker_poll_seconds":     "histogram",
		"obs_trace_spans_dropped_total":     "counter",
		"obs_traces_evicted_total":          "counter",
		"go_goroutines":                     "gauge",
		"go_memstats_heap_alloc_bytes":      "gauge",
		"go_gc_cycles_total":                "counter",
	} {
		if got := types[family]; got != want {
			t.Errorf("family %s TYPE = %q, want %q", family, got, want)
		}
	}

	// Histogram: buckets cumulative (monotonically non-decreasing in le
	// order, which is emission order), +Inf present and equal to _count.
	var prev uint64
	var infValue, countValue string
	bucketCount := 0
	for _, smp := range samples {
		switch smp.name {
		case "nanocostd_request_seconds_bucket":
			bucketCount++
			v, err := strconv.ParseUint(smp.value, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", smp.value, err)
			}
			if v < prev {
				t.Errorf("bucket %q = %d < previous %d: buckets are not cumulative", smp.labels, v, prev)
			}
			prev = v
			if strings.Contains(smp.labels, `le="+Inf"`) {
				infValue = smp.value
			}
		case "nanocostd_request_seconds_count":
			countValue = smp.value
		}
	}
	if bucketCount != len(latencyBuckets)+1 {
		t.Errorf("%d bucket samples, want %d", bucketCount, len(latencyBuckets)+1)
	}
	if infValue == "" || infValue != countValue {
		t.Errorf("le=\"+Inf\" bucket = %q, _count = %q: must exist and agree", infValue, countValue)
	}

	// Label escaping: exactly \\, \" and \n; tab and non-ASCII pass through
	// raw (UTF-8 is legal in label values — Go's %q escaping of them is
	// what broke conformant parsers).
	wantLabel := `route="/v1/\\evil\"route\nwith` + "\tunicodeé" + `"`
	if !bytes.Contains(body, []byte(wantLabel)) {
		t.Errorf("hostile route label not conformantly escaped; scrape does not contain %q", wantLabel)
	}

	// The batch and streaming counters surface the values recorded above.
	for _, want := range []string{
		fmt.Sprintf("nanocostd_batch_items_total{outcome=\"ok\"} %d", 7),
		`nanocostd_batch_requests_total{decode="fast"} 3`,
		`nanocostd_batch_requests_total{decode="fallback"} 1`,
		"nanocostd_streamed_bytes_total 1234",
		`nanocostd_jobs_total{state="submitted"} 3`,
		`nanocostd_jobs_total{state="completed"} 2`,
		`nanocostd_jobs_total{state="failed"} 1`,
		`nanocostd_job_shard_seconds_bucket{le="30"} 1`,
		`nanocostd_job_shard_seconds_bucket{le="10"} 0`,
		"nanocostd_job_trials_per_sec 2.5000005e+06",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
