package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
)

func TestSameSeedSameInputs(t *testing.T) {
	for i := uint64(0); i < 50; i++ {
		a, b := interactiveRequest(7, i), interactiveRequest(7, i)
		if a.method != b.method || a.path != b.path || !bytes.Equal(a.body, b.body) {
			t.Fatalf("interactive op %d differs between two generations of seed 7", i)
		}
	}
	if !bytes.Equal(bulkBody(7, 3), bulkBody(7, 3)) {
		t.Fatal("bulk body differs between two generations of seed 7")
	}
	if !bytes.Equal(jobBody(7, 2), jobBody(7, 2)) {
		t.Fatal("job body differs between two generations of seed 7")
	}
	same := 0
	for i := uint64(0); i < 50; i++ {
		if bytes.Equal(interactiveRequest(7, i).body, interactiveRequest(8, i).body) {
			same++
		}
	}
	if same > 10 { // figure fetches carry no body and may coincide
		t.Fatalf("%d of 50 interactive bodies are equal across seeds 7 and 8", same)
	}
	if bytes.Equal(bulkBody(7, 0), bulkBody(8, 0)) {
		t.Fatal("bulk bodies equal across seeds")
	}
}

func TestBulkBatchShape(t *testing.T) {
	scs, dcs, err := parseBulk(bulkBody(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs)+len(dcs) != bulkItems || len(dcs) != bulkItems/4 {
		t.Fatalf("bulk batch has %d scenarios and %d designcost items", len(scs), len(dcs))
	}
}

// submit posts a job body to h and returns the status code and job id.
func submit(t *testing.T, h http.Handler, body []byte) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	return rec.Code, st.ID
}

func newReplicaForTest(t *testing.T) *serve.Server {
	s := serve.NewServer(serve.Config{Logger: discardLogger, JobDir: t.TempDir(), MaxJobs: 4})
	t.Cleanup(s.Close) // cancels the jobs the tests started
	return s
}

func TestJobIDsFollowSeed(t *testing.T) {
	h := newReplicaForTest(t).Handler()
	seen := map[string]bool{}
	for _, in := range []struct{ seed, job uint64 }{{1, 0}, {2, 0}, {1, 1}} {
		code, id := submit(t, h, jobBody(in.seed, in.job))
		if code != http.StatusAccepted || seen[id] {
			t.Fatalf("seed %d job %d answered %d with id %s (seen before: %v)", in.seed, in.job, code, id, seen[id])
		}
		seen[id] = true
	}
	code, id := submit(t, h, jobBody(1, 0))
	if code != http.StatusOK || !seen[id] {
		t.Fatalf("resubmitting seed 1 job 0 answered %d id %s, want 200 and a known id", code, id)
	}
}

// answer serves rq on h and returns the body.
func answer(h http.Handler, rq request) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body)))
	return rec.Code, rec.Body.Bytes()
}

func TestOracleCatchesOneCorruptByte(t *testing.T) {
	o := newOracle(5)
	if err := o.ensureInteractive(20, 2); err != nil {
		t.Fatal(err)
	}
	tierReplica := newReplicaForTest(t).Handler()
	for i := uint64(0); i < 20; i++ {
		rq := interactiveRequest(5, i)
		code, body := answer(tierReplica, rq)
		if !checkBody(code, nil, body, o.interactive(i)) {
			t.Fatalf("op %d (%s): correct response rejected", i, rq.shape)
		}
		for _, at := range []int{0, len(body) / 2, len(body) - 2} {
			bad := append([]byte(nil), body...)
			bad[at] ^= 0x01
			if checkBody(code, nil, bad, o.interactive(i)) {
				t.Fatalf("op %d (%s): byte %d flipped, oracle accepted it", i, rq.shape, at)
			}
		}
		if checkBody(http.StatusInternalServerError, nil, body, o.interactive(i)) {
			t.Fatalf("op %d: non-200 status accepted", i)
		}
	}
}

func TestJobOracleCatchesOneCorruptByte(t *testing.T) {
	want := []byte(`{"kind":"montecarlo","trials":4}`)
	env := []byte(`{"id":"abc","kind":"montecarlo","result":{"kind":"montecarlo","trials":4}}` + "\n")
	if err := checkJobResult(env, "abc", want); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(env, []byte(`"trials":4`), []byte(`"trials":5`), 1)
	if err := checkJobResult(bad, "abc", want); err == nil {
		t.Fatal("a changed result byte was accepted")
	}
	if err := checkJobResult(env, "abd", want); err == nil {
		t.Fatal("an envelope naming another job was accepted")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	p, err := percentile(samples(1000), 0.99)
	if err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond it", p, err)
	}
	if _, err := percentile(samples(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples accepted")
	}
	if _, err := percentile(samples(100), 0.90); err != nil {
		t.Fatal(err)
	}
}

func TestPromSum(t *testing.T) {
	text := `# HELP x y
nanocostd_span_seconds_sum{stage="serve.request"} 1.5
nanocostd_span_seconds_sum{stage="serve.requests"} 100
nanocostd_span_seconds_sum{route="a,b",stage="serve.request"} 2
nanocostd_span_seconds_sum_total 7
front_retries_total 3
`
	if got := promSum(text, "nanocostd_span_seconds_sum", `stage="serve.request"`); got != 3.5 {
		t.Fatalf("stage sum = %v, want 3.5", got)
	}
	if got := promSum(text, "front_retries_total", ""); got != 3 {
		t.Fatalf("retries = %v, want 3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := link([]span{
		{Name: layerClient, Trace: "r", Start: 0, End: 100},
		{Name: layerFront, Trace: "r", Start: 10, End: 90},
		{Name: layerServe, Trace: "r", Start: 20, End: 60},
		{Name: layerClient, Trace: "q", Start: 5, End: 50},
	})
	self := selfTimes(spans)
	want := map[string]float64{"r/" + layerClient: 20e-6, "r/" + layerFront: 40e-6, "r/" + layerServe: 40e-6, "q/" + layerClient: 45e-6}
	for i, s := range spans {
		if w := want[s.Trace+"/"+s.Name]; self[i] != w {
			t.Errorf("%s/%s self = %v ms, want %v", s.Trace, s.Name, self[i], w)
		}
	}
}

// TestRunsReportDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks that each run is correct and prints exactly the
// metrics BENCHMARK.json declares for it, each with its declared unit,
// a name that follows the naming rule, and end-to-end values above zero.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tier")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		declared[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[1][m.Name] = m.Unit
	}
	for _, wl := range []string{wlInteractive, wlBulk, wlJob} {
		for trace := 0; trace < 2; trace++ {
			res, err := run(config{workload: wl, seed: 3, seconds: 2, trace: trace == 1, outDir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %d: correct %v, %d of %d failed", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q breaks [A-Za-z0-9_.-]+", wl, name)
				}
				if unit, ok := declared[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace %d: metric %s (%s) not declared with that unit in BENCHMARK.json", wl, trace, name, m.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
				}
			}
			for name := range declared[trace] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace %d: declared metric %s not reported", wl, trace, name)
				}
			}
		}
	}
}

// TestJobWarmUpRunsOneJob checks that the job warm-up runs exactly one
// job: the first job of a process runs cold, and the window must not.
func TestJobWarmUpRunsOneJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tier")
	}
	b := newBench(config{workload: wlJob, seed: 4, seconds: 1, outDir: t.TempDir()}, 2)
	tr, _, err := b.boot(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	b.warm(tr)
	if len(b.jobs) != 1 || b.jobs[0].err != nil {
		t.Fatalf("warm-up ran %d jobs (%v), want exactly one that succeeds", len(b.jobs), b.jobs)
	}
}
