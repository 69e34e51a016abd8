package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file is the batch serving layer: POST /v1/batch accepts an array of
// heterogeneous evaluation requests (the bodies of /v1/cost, /v1/designcost
// and /v1/generalized) and fans them out over the parallel engine. The
// contract is the one design-space scanners need:
//
//   - results come back in input order, deterministically, for any worker
//     count — item i of the response always answers item i of the request;
//   - each item's result body is byte-identical to what the individual
//     endpoint would have returned, because both run the same evaluation
//     and the same encoder;
//   - errors are isolated per item: one out-of-domain scenario yields an
//     item-level error envelope with its own status, not a 400 for the
//     whole batch. Only a dead request context (timeout, client gone)
//     aborts the batch as a whole.

// maxBatchItems caps one /v1/batch request. Together with the 1 MiB body
// cap it bounds what a single request can make the pool chew on; larger
// scans should be split into multiple batches.
const maxBatchItems = 1024

// batchItemJSON is one entry of the request array: the target endpoint
// ("cost", "designcost" or "generalized") and its body, verbatim.
type batchItemJSON struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// batchRequest is the POST /v1/batch payload.
type batchRequest struct {
	Items []batchItemJSON `json:"items"`
}

// batchScratch holds one batch request's reusable buffers: the request
// body, the decoded items, the index-addressed body/error slots the
// parallel engine writes, each slot's encode buffer, and the response
// buffer. Pooling them means a steady stream of 1024-item batches stops
// allocating per request and per item.
type batchScratch struct {
	in     bytes.Buffer
	items  []*batchItem
	bodies []json.RawMessage
	errs   []error
	enc    [][]byte
	buf    bytes.Buffer
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grab sizes the scratch for n items.
func (b *batchScratch) grab(n int) {
	if cap(b.bodies) < n {
		b.bodies = make([]json.RawMessage, n)
		b.errs = make([]error, n)
	}
	for len(b.enc) < n {
		b.enc = append(b.enc, nil)
	}
	for len(b.items) < n {
		b.items = nextItem(b.items)
	}
}

// release clears every slot that can reference request data — a parked
// scratch must not pin request payloads in memory — and returns the
// scratch to the pool. The buffers it owns keep their capacity.
func (b *batchScratch) release(n int) {
	for i := 0; i < n && i < len(b.bodies); i++ {
		b.bodies[i] = nil
		b.errs[i] = nil
	}
	for i := range b.enc {
		b.enc[i] = b.enc[i][:0]
	}
	for _, it := range b.items {
		*it = batchItem{}
	}
	b.items = b.items[:0]
	b.in.Reset()
	b.buf.Reset()
	batchScratchPool.Put(b)
}

// decode reads the capped request body into the scratch and decodes it.
// With scan set, a canonical body (see scanBatch) becomes typed items
// directly and fast is true. Any other body, and a body whose read
// failed, is replayed — the bytes read, then the read error — into
// decodeJSON's strict decoder, so it answers with exactly the status and
// message that decoder gives; its items come back in raw, to be decoded
// one by one with decodeItem.
func (b *batchScratch) decode(body io.Reader, scan bool) (raw []batchItemJSON, fast bool, err error) {
	_, rerr := b.in.ReadFrom(body)
	if rerr == nil && scan {
		if b.items, fast = scanBatch(b.in.Bytes(), b.items); fast {
			return nil, true, nil
		}
	}
	var src io.Reader = bytes.NewReader(b.in.Bytes())
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	req, err := decodeJSONFrom[batchRequest](src)
	return req.Items, false, err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// serveBatchTuner adapts how many batch items one scheduled task covers.
var serveBatchTuner parallel.ChunkTuner

// handleBatch fans a heterogeneous batch out over the parallel engine.
// It writes its own response from the pooled buffer (returning the
// wroteResponse sentinel), which is what makes it safe to release the
// pooled buffers before returning to the middleware.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (any, error) {
	return s.serveBatch(w, r, true)
}

// serveBatch is handleBatch. scan = false sends every body down the
// fallback decoder, which lets tests check that both decode paths answer
// alike.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, scan bool) (any, error) {
	scratch := batchScratchPool.Get().(*batchScratch)
	n := 0
	defer func() { scratch.release(n) }()
	raw, fast, err := scratch.decode(r.Body, scan)
	decode := "fallback"
	if fast {
		decode = "fast"
	}
	s.metrics.batchRequests.With(decode).Inc()
	if err != nil {
		return nil, err
	}
	n = len(scratch.items)
	if !fast {
		n = len(raw)
	}
	if n == 0 {
		return nil, badRequest(errors.New("batch contains no items"))
	}
	if n > maxBatchItems {
		return nil, badRequest(fmt.Errorf("batch has %d items, max %d", n, maxBatchItems))
	}
	ctx, span := obs.StartSpan(r.Context(), "serve.batch")
	if span != nil {
		span.SetAttr("items", strconv.Itoa(n))
		span.SetAttr("decode", decode)
		defer span.End()
	}
	scratch.grab(n)
	items, bodies, errs := scratch.items[:n], scratch.bodies[:n], scratch.errs[:n]
	stop := parallel.MapAllInto(ctx, bodies, errs, 0, &serveBatchTuner, func(i int) (json.RawMessage, error) {
		if !fast {
			if err := items[i].decodeItem(raw[i]); err != nil {
				return nil, err
			}
		}
		out, err := items[i].appendResult(ctx, scratch.enc[i][:0])
		if err != nil {
			return nil, err
		}
		scratch.enc[i] = out
		return out, nil
	})
	if stop != nil {
		// The request context died: the whole batch maps to 504/499 exactly
		// like a single long evaluation would.
		return nil, stop
	}
	// The envelope is written straight into the pooled buffer. Its bytes
	// are the json.Encoder encoding of {count, results: [{index, status,
	// body}]} plus its trailing newline: every body is already compact
	// JSON from json.Marshal or an appendJSON that matches it.
	out := &scratch.buf
	out.WriteString(`{"count":`)
	out.Write(strconv.AppendInt(out.AvailableBuffer(), int64(n), 10))
	out.WriteString(`,"results":[`)
	var okItems, errItems uint64
	for i := 0; i < n; i++ {
		if i > 0 {
			out.WriteByte(',')
		}
		status, body := http.StatusOK, []byte(bodies[i])
		if errs[i] != nil {
			ae := asAPIError(errs[i])
			var envelope errorBody
			envelope.Error.Code = ae.code
			envelope.Error.Message = ae.err.Error()
			status = ae.status
			body, _ = json.Marshal(envelope)
			errItems++
		} else {
			okItems++
		}
		out.WriteString(`{"index":`)
		out.Write(strconv.AppendInt(out.AvailableBuffer(), int64(i), 10))
		out.WriteString(`,"status":`)
		out.Write(strconv.AppendInt(out.AvailableBuffer(), int64(status), 10))
		out.WriteString(`,"body":`)
		out.Write(body)
		out.WriteByte('}')
	}
	out.WriteString("]}\n")
	s.metrics.batchItems.With("ok").Add(okItems)
	s.metrics.batchItems.With("error").Add(errItems)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(out.Bytes()); err != nil {
		// The header is out; nothing more can be written. The access log
		// carries the truncation via the middleware's error annotation.
		return nil, err
	}
	return wroteResponse{}, nil
}

// decodeItem fills it from a fallback-decoded item, with the same strict
// body decoding the item's target endpoint applies.
func (it *batchItem) decodeItem(raw batchItemJSON) error {
	*it = batchItem{kind: raw.Kind}
	var err error
	switch raw.Kind {
	case "cost":
		it.gen.Scenario, err = decodeJSONBytes[scenarioJSON](raw.Body)
	case "designcost":
		it.design, err = decodeJSONBytes[designCostRequest](raw.Body)
	case "generalized":
		it.gen, err = decodeJSONBytes[generalizedRequest](raw.Body)
	default:
		err = badRequest(fmt.Errorf("unknown batch item kind %q (want cost, designcost or generalized)", raw.Kind))
	}
	return err
}

// appendResult evaluates a decoded item through its target endpoint's
// evaluation core and appends the result body to dst.
func (it *batchItem) appendResult(ctx context.Context, dst []byte) ([]byte, error) {
	var out []byte
	var err error
	switch it.kind {
	case "cost":
		var res costResult
		if res, err = evalCost(ctx, it.gen.Scenario); err != nil {
			return nil, err
		}
		out, err = res.appendJSON(dst)
	case "designcost":
		var res designCostResult
		if res, err = evalDesignCost(ctx, it.design); err != nil {
			return nil, err
		}
		out, err = res.appendJSON(dst)
	default:
		var res generalizedResult
		if res, err = evalGeneralized(ctx, it.gen); err != nil {
			return nil, err
		}
		out, err = res.appendJSON(dst)
	}
	if err != nil {
		return nil, &apiError{status: http.StatusInternalServerError, code: "internal", err: err}
	}
	return out, nil
}

// decodeJSONBytes is decodeJSON for an in-memory body: the same strict
// rules (unknown fields, trailing garbage) applied to a batch item's raw
// message.
func decodeJSONBytes[T any](raw json.RawMessage) (T, error) {
	var v T
	if len(raw) == 0 {
		return v, &apiError{status: http.StatusBadRequest, code: "invalid_request",
			err: errors.New("batch item has no body")}
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, &apiError{status: http.StatusBadRequest, code: "invalid_request",
			err: fmt.Errorf("malformed batch item body: %w", err)}
	}
	if dec.More() {
		return v, &apiError{status: http.StatusBadRequest, code: "invalid_request",
			err: errors.New("batch item body contains trailing data")}
	}
	return v, nil
}
