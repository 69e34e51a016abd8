package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fullBatchPayload builds a /v1/batch request at the maxBatchItems cap,
// mixing all three item kinds plus a sprinkling of failing items so the
// scratch's error slots get exercised too.
func fullBatchPayload() string {
	kinds := make([]string, maxBatchItems)
	bodies := make([]string, maxBatchItems)
	for i := range kinds {
		switch i % 4 {
		case 0:
			kinds[i] = "cost"
			bodies[i] = scenarioWithSd(150 + float64(i%600))
		case 1:
			kinds[i] = "designcost"
			bodies[i] = fmt.Sprintf(`{"transistors":10e6,"sd":%d}`, 120+i%500)
		case 2:
			kinds[i] = "generalized"
			bodies[i] = `{"scenario":` + scenarioWithSd(250+float64(i%300)) + `,"yield_model":{"model":"murphy","d0":0.5}}`
		default:
			kinds[i] = "cost"
			bodies[i] = scenarioWithSd(90) // eq (6) pole -> per-item error
		}
	}
	return batchOf(kinds, bodies)
}

// batchItemResult is one entry of the /v1/batch response array.
type batchItemResult struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// TestBatchFullCapacityReusesScratch drives /v1/batch at the 1024-item
// cap several times through one server, so later rounds run on recycled
// scratch buffers. Every round must produce byte-identical output — any
// stale body, error or result leaking through the pool would show up
// here. scripts/check.sh also runs this test under -race, which is what
// makes the pool's concurrent Get/Put and the per-item writes into
// shared slices a checked contract rather than a hope.
func TestBatchFullCapacityReusesScratch(t *testing.T) {
	s := newTestServer(t, Config{})
	payload := fullBatchPayload()
	var first []byte
	for round := 0; round < 3; round++ {
		code, _, raw := rawDo(t, s, "POST", "/v1/batch", payload)
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d\n%.400s", round, code, raw)
		}
		var resp struct {
			Count   int               `json:"count"`
			Results []batchItemResult `json:"results"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if resp.Count != maxBatchItems || len(resp.Results) != maxBatchItems {
			t.Fatalf("round %d: count %d, %d results, want %d", round, resp.Count, len(resp.Results), maxBatchItems)
		}
		if round == 0 {
			first = raw
			continue
		}
		if !bytes.Equal(raw, first) {
			t.Fatalf("round %d response differs from round 0: scratch reuse leaked state", round)
		}
	}
}

// TestBatchConcurrentFullCapacity hammers the pooled path from several
// goroutines at once — the shape the sync.Pool exists for, and the test
// the -race gate leans on hardest.
func TestBatchConcurrentFullCapacity(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 8})
	payload := fullBatchPayload()
	_, _, want := rawDo(t, s, "POST", "/v1/batch", payload)
	const clients = 4
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func() {
			for i := 0; i < 3; i++ {
				req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(payload))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("status %d", rec.Code)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want) {
					errc <- fmt.Errorf("iteration %d: response differs under concurrency", i)
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < clients; g++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("concurrent batch clients did not finish")
		}
	}
}

// TestBatchScratchReleaseClearsReferences pins the memory contract of
// the pool: a parked scratch must not keep request payloads alive
// through its body, error or item slots, and its owned buffers (request
// body, per-item encode buffers, response) come back empty.
func TestBatchScratchReleaseClearsReferences(t *testing.T) {
	b := new(batchScratch)
	b.grab(4)
	bodies := b.bodies[:4]
	items := b.items[:4]
	for i := range bodies {
		bodies[i] = json.RawMessage(`{"x":1}`)
		b.errs[i] = fmt.Errorf("item %d", i)
		b.enc[i] = append(b.enc[i], `{"x":1}`...)
		items[i].kind = "generalized"
		items[i].gen.Scenario.Process.Name = fmt.Sprintf("payload %d", i)
		items[i].gen.Scenario.MaskCost = &items[i].mask
		items[i].gen.YieldModel = &yieldModelJSON{Model: "murphy"}
	}
	b.in.WriteString("stale request bytes")
	b.buf.WriteString("stale response bytes")
	b.release(4)
	for i := 0; i < 4; i++ {
		if bodies[i] != nil || b.errs[i] != nil {
			t.Fatalf("slot %d not cleared after release: body=%v err=%v", i, bodies[i], b.errs[i])
		}
		if *items[i] != (batchItem{}) {
			t.Fatalf("item %d not cleared after release: %+v", i, *items[i])
		}
		if len(b.enc[i]) != 0 {
			t.Fatalf("encode buffer %d holds %d bytes after release, want 0", i, len(b.enc[i]))
		}
	}
	if len(b.items) != 0 {
		t.Fatalf("items length %d after release, want 0", len(b.items))
	}
	if b.in.Len() != 0 {
		t.Fatalf("request buffer holds %d bytes after release, want 0", b.in.Len())
	}
	if b.buf.Len() != 0 {
		t.Fatalf("encode buffer holds %d bytes after release, want 0", b.buf.Len())
	}
}

// BenchmarkBatch1024 measures /v1/batch at its item cap and reports
// evals/sec — the throughput number the benchmark gate tracks.
func BenchmarkBatch1024(b *testing.B) {
	s := NewServer(Config{Logger: discardLogger()})
	payload := fullBatchPayload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(payload))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*maxBatchItems/secs, "evals/sec")
	}
}
