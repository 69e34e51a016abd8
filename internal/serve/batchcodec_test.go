package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// batchPaths answers /v1/batch bodies two ways through one server: the
// served handler, and the same middleware over the fallback decoder
// alone. Both requests carry the same X-Request-Id, so error envelopes
// that echo it compare byte for byte.
type batchPaths struct {
	s        *Server
	fallback http.Handler
}

func newBatchPaths(s *Server) batchPaths {
	return batchPaths{s: s, fallback: s.observe(s.handle("/v1/batch", func(w http.ResponseWriter, r *http.Request) (any, error) {
		return s.serveBatch(w, r, false)
	}))}
}

func (p batchPaths) do(h http.Handler, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/batch", body)
	req.Header.Set("X-Request-Id", "batch-paths")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// check fails t unless both paths answer body with the same status,
// content type and bytes, and returns the served response.
func (p batchPaths) check(t testing.TB, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	got := p.do(p.s.Handler(), bytes.NewReader(body))
	want := p.do(p.fallback, bytes.NewReader(body))
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
		got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("served and fallback answers differ for %.300q:\nserved   %d %s\nfallback %d %s",
			body, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
	}
	return got
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// itemRequest is the typed request a decoded item carries.
func itemRequest(it *batchItem) any {
	switch it.kind {
	case "cost":
		return it.gen.Scenario
	case "designcost":
		return it.design
	}
	return it.gen
}

// checkScan fails t if the canonical scanner accepts body but its items
// differ from what the fallback decoder makes of it.
func checkScan(t testing.TB, body []byte) bool {
	t.Helper()
	items, ok := scanBatch(body, nil)
	if !ok {
		return false
	}
	req, err := decodeJSONFrom[batchRequest](bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scanner accepted %.300q, fallback rejects it: %v", body, err)
	}
	if len(req.Items) != len(items) {
		t.Fatalf("scanner found %d items, fallback %d", len(items), len(req.Items))
	}
	for i, raw := range req.Items {
		var want batchItem
		if err := want.decodeItem(raw); err != nil {
			t.Fatalf("item %d: scanner accepted it, fallback rejects it: %v", i, err)
		}
		if items[i].kind != want.kind || !reflect.DeepEqual(itemRequest(items[i]), itemRequest(&want)) {
			t.Fatalf("item %d: scanner decoded %s %+v, fallback %s %+v",
				i, items[i].kind, itemRequest(items[i]), want.kind, itemRequest(&want))
		}
	}
	return true
}

// FuzzBatchDecode is the differential test of the two decode paths: for
// any body, /v1/batch answers exactly what the fallback decoder alone
// answers, and whatever the canonical scanner accepts decodes to the
// items the fallback decoder makes of it.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(fullBatchPayload()))
	s := NewServer(Config{Logger: discardLogger()})
	defer s.Close()
	p := newBatchPaths(s)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScan(t, body)
		p.check(t, body)
	})
}

// TestBatchDecodePaths pins which bodies the scanner takes, that each
// answers as the fallback decoder does, and that the choice shows on
// nanocostd_batch_requests_total and the serve.batch span.
func TestBatchDecodePaths(t *testing.T) {
	s := newTestServer(t, Config{})
	p := newBatchPaths(s)
	cost := scenarioWithSd(300)
	full := `{"process":{"name":"n7","lambda_um":0.18,"cost_per_cm2":9,"yield":0.4,"wafer_area_cm2":700},` +
		`"design":{"name":"cpu","transistors":10e6,"sd":300},"design_cost":{"a0":1000,"p1":1.2,"p2":1.1,"sd0":100},` +
		`"mask_cost":-0,"wafers":5000,"utilization":0.5}`
	for _, tc := range []struct {
		name, body string
		fast       bool
	}{
		{"mixed kinds", fullBatchPayload(), true},
		{"every field", `{"items":[{"kind":"cost","body":` + full + `},{"kind":"generalized","body":{"scenario":` + full +
			`,"yield_model":{"model":"negbinomial","alpha":2,"d0":0.5}}},{"kind":"designcost","body":{"transistors":1e7,"sd":300,"model":{}}}]}`, true},
		{"whitespace", " \t\n{ \"items\" : [ { \"kind\" : \"cost\" , \"body\" : " + cost + " } ] }\r\n", true},
		{"empty items", `{"items":[]}`, true},
		{"overflowing result", `{"items":[{"kind":"designcost","body":{"transistors":1e300,"sd":200,"model":{"a0":1e300,"p1":2,"p2":1,"sd0":100}}}]}`, true},
		{"case-variant key", `{"items":[{"kind":"cost","body":` + strings.Replace(cost, "lambda_um", "Lambda_UM", 1) + `}]}`, false},
		{"duplicate key", `{"items":[{"kind":"cost","body":` + strings.Replace(cost, `"wafers":5000`, `"wafers":5000,"wafers":6000`, 1) + `}]}`, false},
		{"null", `{"items":[{"kind":"cost","body":` + strings.Replace(cost, `"wafers":5000`, `"wafers":null`, 1) + `}]}`, false},
		{"escaped string", `{"items":[{"kind":"cost","body":{"process":{"name":"\u006e7","lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":5000}}]}`, false},
		{"out-of-range number", `{"items":[{"kind":"cost","body":` + strings.Replace(cost, `"wafers":5000`, `"wafers":1e400`, 1) + `}]}`, false},
		{"body before kind", `{"items":[{"body":` + cost + `,"kind":"cost"}]}`, false},
		{"unknown kind", `{"items":[{"kind":"sweep","body":` + cost + `}]}`, false},
		{"trailing garbage", `{"items":[{"kind":"cost","body":` + cost + `}]} x`, false},
		{"trailing brace", `{"items":[{"kind":"cost","body":` + cost + `}]}}`, false},
		{"missing body", `{"items":[{"kind":"cost"}]}`, false},
		{"too many items", batchOf(repeat("cost", maxBatchItems+1), repeat(cost, maxBatchItems+1)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if fast := checkScan(t, []byte(tc.body)); fast != tc.fast {
				t.Fatalf("scanner accepted = %v, want %v", fast, tc.fast)
			}
			p.check(t, []byte(tc.body))
		})
	}

	before := s.metrics.batchRequests.Value("fast")
	code, hdr, _ := rawDo(t, s, "POST", "/v1/batch", `{"items":[{"kind":"cost","body":`+cost+`}]}`)
	if code != http.StatusOK || s.metrics.batchRequests.Value("fast") != before+1 {
		t.Fatalf("canonical batch: status %d, fast decodes %d → %d", code, before, s.metrics.batchRequests.Value("fast"))
	}
	trace, ok := s.tracer.Lookup(hdr.Get("X-Trace-Id"))
	if !ok {
		t.Fatal("batch request left no trace")
	}
	found := false
	for _, sp := range trace.Spans {
		if sp.Name == "serve.batch" {
			found = sp.Attrs["decode"] == "fast"
		}
	}
	if !found {
		t.Fatal(`serve.batch span lacks decode="fast"`)
	}
	if s.metrics.batchRequests.Value("fallback") == 0 {
		t.Fatal("fallback decodes were not counted")
	}
}

// TestBatchUnsupportedFloatItem: a result json.Marshal refuses (here
// +Inf, from an overflowing eq (6)) stays a 500 internal item with the
// error text json.Marshal gives, exactly as before the batch encoder
// stopped using it.
func TestBatchUnsupportedFloatItem(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"items":[{"kind":"designcost","body":{"transistors":1e300,"sd":200,"model":{"a0":1e300,"p1":2,"p2":1,"sd0":100}}}]}`
	want := `{"count":1,"results":[{"index":0,"status":500,"body":{"error":{"code":"internal","message":"json: unsupported value: +Inf"}}}]}` + "\n"
	rec := newBatchPaths(s).check(t, []byte(body))
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("got %d %s\nwant 200 %s", rec.Code, rec.Body.Bytes(), want)
	}
}

// failingReader yields its bytes, then fails with err.
type failingReader struct {
	r   io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		return n, f.err
	}
	return n, err
}

// TestBatchReadFailureReplays: when the body read fails — over the body
// cap, or cut off — the bytes read and then the error reach the
// fallback decoder, so the answer is the one it gives reading the body
// itself. A complete batch followed by whitespace past the cap is still
// served, as before.
func TestBatchReadFailureReplays(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 4096})
	p := newBatchPaths(s)
	batch := `{"items":[{"kind":"cost","body":` + scenarioWithSd(300) + `}]}`
	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"padding past the cap": {batch + strings.Repeat(" ", 8192), http.StatusOK},
		"items past the cap":   {fullBatchPayload(), http.StatusRequestEntityTooLarge},
	} {
		t.Run(name, func(t *testing.T) {
			if rec := p.check(t, []byte(tc.body)); rec.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.code, rec.Body.Bytes())
			}
		})
	}
	cut := batch[:len(batch)/2]
	got := p.do(s.Handler(), &failingReader{strings.NewReader(cut), io.ErrUnexpectedEOF})
	want := p.do(p.fallback, &failingReader{strings.NewReader(cut), io.ErrUnexpectedEOF})
	if got.Code != http.StatusBadRequest || got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Fatalf("cut-off body: served %d %s, fallback %d %s", got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
	}
}

// TestBatchAppendersMatchMarshal is the oracle of the batch encoder:
// every typed result appends exactly json.Marshal's bytes, including at
// the 1e-6 and 1e21 format switches, for subnormals, ±0, ±MaxFloat64
// and 10⁵ random bit patterns, and refuses NaN and ±Inf with
// json.Marshal's error.
func TestBatchAppendersMatchMarshal(t *testing.T) {
	type appender interface{ appendJSON([]byte) ([]byte, error) }
	// results puts 11 values into the fields of every result type.
	results := func(v []float64) []appender {
		bd := breakdownJSON{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]}
		return []appender{
			costResult{Breakdown: bd},
			designCostResult{DesignCost: v[8], MarginalCost: v[9], Sd0: v[10]},
			generalizedResult{Breakdown: bd, EffectiveYield: v[8], Utilization: v[9]},
		}
	}
	check := func(r appender) {
		t.Helper()
		want, werr := json.Marshal(r)
		got, gerr := r.appendJSON([]byte("prefix"))
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("%+v: json.Marshal error %v, appendJSON error %v", r, werr, gerr)
		case werr != nil:
			if werr.Error() != gerr.Error() {
				t.Fatalf("%+v: json.Marshal error %q, appendJSON error %q", r, werr, gerr)
			}
		case string(got) != "prefix"+string(want):
			t.Fatalf("%+v:\nappendJSON   %s\njson.Marshal %s", r, got[len("prefix"):], want)
		}
	}
	// Each special value in every field of every result type.
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1e-7, 1.5e-9, 1e-10,
		5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0), math.MaxFloat64,
		-math.MaxFloat64, 123456789, 1e300, 3.14159e-300, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		same := []float64{v, v, v, v, v, v, v, v, v, v, v}
		for _, r := range results(same) {
			check(r)
		}
	}
	// 10⁵ random bit patterns, each in one field of every result type.
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, 11)
	for n := 0; n < 100000; n += len(random) {
		for k := range random {
			random[k] = math.Float64frombits(rng.Uint64())
		}
		for _, r := range results(random) {
			check(r)
		}
	}
}
